package repro.core

import repro.workload.{ConfigProfile, Workload}

/** Offline filtering of the exponential knob-configuration grid down to the
  * work/quality Pareto set (paper §3.1, Appendix A.1).
  *
  * The paper approximates the frontier by VideoStorm-style hill climbing on
  * content-diverse segments, because evaluating a config on a segment means
  * running real CV models. Here a config's quality on a segment is an
  * analytic function, so the filter takes the exact dominance frontier over
  * the whole grid, once per content regime of the pre-sample. Climb paths
  * could add nothing to that union: a climbed config is either on some
  * regime's frontier already or dominated on every regime.
  */
object Pareto {

  /** A sampled segment's content, enough to evaluate the analytic models. */
  final case class Seg(segId: Long, difficulty: Double, load: Double, regime: Int = 0)

  /** Nominal cost of a config used for frontier ordering: work per
    * video-second at full load (caps bounded by the observed max load).
    */
  def nominalCost(p: ConfigProfile, maxLoad: Double): Double =
    p.unitCost * math.min(p.streamCap, maxLoad)

  /** Cheapest configuration k⁻ (found by profiling runtimes in the paper). */
  def cheapest(w: Workload, maxLoad: Double): ConfigProfile =
    w.profiles.minBy(nominalCost(_, maxLoad))

  /** Keep only configs not dominated in (cost, mean quality on `sample`). */
  def dominanceFrontier(w: Workload, cands: Seq[ConfigProfile], sample: Seq[Seg],
                        maxLoad: Double): Vector[ConfigProfile] = {
    val uniq = cands.groupBy(_.id).map(_._2.head).toVector
    val withStats = uniq.map { p =>
      val q = sample.map(s => w.quality(p, s.segId, s.difficulty, s.load, s.regime)).sum / math.max(1, sample.size)
      (p, nominalCost(p, maxLoad), q)
    }
    withStats
      .filter { case (p, c, q) =>
        !withStats.exists { case (o, oc, oq) =>
          o.id != p.id && oc <= c + 1e-12 && oq >= q + 1e-9
        }
      }
      .sortBy(_._2)
      .map(_._1)
  }

  /** Full offline filter (paper Appendix A.1): the union of the per-regime
    * dominance frontiers over the whole grid, thinned to at most `maxK`
    * configs (always keeping the cheapest config and each regime's best).
    * `nSearch`, the paper's number of hill-climbed segments, has no effect:
    * the frontiers are exact, so there is no search to size.
    */
  def filterConfigs(w: Workload, pre: Seq[Seg], nSearch: Int = 5,
                    maxK: Int = 10): Vector[ConfigProfile] = {
    val maxLoad = if (pre.isEmpty) 1.0 else pre.map(_.load).max
    // Per-regime frontiers so specialist configs (great on one content type,
    // mediocre on average) survive — pruning on MEAN quality would drop
    // exactly the configs the knob plan wants to assign to rare categories.
    // The dedupe keeps groupBy's order: `thin` breaks cost ties by position.
    val byRegime = pre.groupBy(_.regime).values.toSeq
    val kept = byRegime.flatMap(rs => dominanceFrontier(w, w.profiles, rs, maxLoad))
      .groupBy(_.id).map(_._2.head).toVector
      .sortBy(nominalCost(_, maxLoad))

    // Thin to maxK but always retain the cheapest config and each regime's
    // best config (the plan's per-category workhorses).
    val mustKeep = (cheapest(w, maxLoad) +: byRegime.map { rs =>
      kept.maxBy(p => rs.map(s => w.quality(p, s.segId, s.difficulty, s.load, s.regime)).sum)
    }).groupBy(_.id).map(_._2.head).toVector
    val thinned = thin(kept, maxK, nominalCost(_: ConfigProfile, maxLoad))
    (thinned ++ mustKeep).groupBy(_.id).map(_._2.head).toVector
      .sortBy(nominalCost(_, maxLoad))
  }

  /** Evenly thin a cost-sorted frontier to `maxK` entries (log-cost spacing),
    * keeping both endpoints.
    */
  def thin(front: Vector[ConfigProfile], maxK: Int,
           costOf: ConfigProfile => Double): Vector[ConfigProfile] = {
    if (front.length <= maxK) return front
    val costs = front.map(p => math.log(math.max(costOf(p), 1e-9)))
    val lo = costs.head; val hi = costs.last
    val targets = (0 until maxK).map(i => lo + (hi - lo) * i / (maxK - 1))
    val picked = targets.map(t => front(costs.indices.minBy(i => math.abs(costs(i) - t))))
    picked.distinct.toVector
  }
}
