package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.workload.{Covid, MoseiHigh, MoseiLong, Mot}

class ParetoSpec extends AnyFunSuite {

  // Synthetic content sample spanning easy to hard segments.
  private val sample = (0 until 60).map { i =>
    Pareto.Seg(i.toLong * 97, i / 59.0, 1.0)
  }

  test("cheapest returns the min-cost config") {
    val k = Pareto.cheapest(Covid, 1.0)
    assert(k.unitCost == Covid.profiles.map(_.unitCost).min)
  }

  test("filterConfigs keeps robust configs for hard content despite plateaus") {
    // Quality is flat at zero robustness across the cheap end of the grid;
    // the exact frontier must still reach past that plateau to the
    // high-robustness configs the hard segments need.
    val k = Pareto.filterConfigs(Covid, sample, nSearch = 5, maxK = 8)
    assert(k.exists(_.rho > 0.8), k.map(_.rho).toString)
    assert(k.exists(_.rho < 0.3), k.map(_.rho).toString)
  }

  test("dominanceFrontier removes dominated configs") {
    val front = Pareto.dominanceFrontier(Covid, Covid.profiles, sample, 1.0)
    // sorted by cost, strictly increasing quality along the frontier
    val costs = front.map(_.unitCost)
    assert(costs == costs.sorted)
    def meanQ(p: repro.workload.ConfigProfile) =
      sample.map(s => Covid.quality(p, s.segId, s.difficulty, s.load)).sum / sample.size
    val quals = front.map(meanQ)
    quals.sliding(2).foreach { case Seq(a, b) => assert(b > a - 1e-12); case _ => }
  }

  test("filterConfigs yields a small set containing the cheapest config") {
    for (w <- Seq(Covid, Mot, MoseiHigh)) {
      val maxLoad = if (w.name.startsWith("MOSEI")) 62.0 else 1.0
      val s = sample.map(x => x.copy(load = maxLoad))
      val k = Pareto.filterConfigs(w, s, nSearch = 5, maxK = 8)
      assert(k.nonEmpty && k.size <= 14, s"${w.name}: |K|=${k.size}")
      assert(k.map(_.id).contains(Pareto.cheapest(w, maxLoad).id), w.name)
      assert(k.size >= 3, s"${w.name}: need a usable spectrum, got ${k.size}")
      // sorted by nominal cost
      val costs = k.map(Pareto.nominalCost(_, maxLoad))
      assert(costs == costs.sorted)
    }
  }

  test("thin keeps endpoints and bounds the size") {
    val front = Pareto.dominanceFrontier(Covid, Covid.profiles, sample, 1.0)
    val thinned = Pareto.thin(front, 4, _.unitCost)
    assert(thinned.size <= 4)
    assert(thinned.head.id == front.head.id)
    assert(thinned.last.id == front.last.id)
  }

  test("filterConfigs keeps the pinned per-regime config ids") {
    // Ids and order recorded before the hill-climb search was removed; they
    // depend on the per-regime frontiers, the regime bests in mustKeep and
    // the order-preserving dedupe that `thin` relies on for cost ties. MOSEI
    // loads mimic a pre-sample (mostly 4–15 streams, one 62-stream spike),
    // where configs trading model size for stream cap tie in nominal cost.
    val expected = Seq(
      Covid     -> Vector(38, 37, 4, 33, 8, 17, 1),
      Mot       -> Vector(72, 82, 80, 86, 9, 68, 2, 38, 23),
      MoseiHigh -> Vector(648, 325, 327, 555, 536, 321, 105, 106, 107),
      MoseiLong -> Vector(648, 325, 327, 555, 536, 321, 105, 106, 107),
    )
    for ((w, ids) <- expected) {
      // The sample's segments spread over four content regimes.
      val s = sample.zipWithIndex.map { case (seg, i) =>
        val load = if (!w.name.startsWith("MOSEI")) 1.0 else if (i == 0) 62.0 else 4.0 + i % 12
        seg.copy(load = load, regime = i % 4)
      }
      val k = Pareto.filterConfigs(w, s, maxK = 8)
      assert(k.map(_.id) == ids, w.name)
    }
  }
}
