package perfbench

import repro.core.{Skyscraper, SkyscraperModel, SegmentTrace}
import repro.sim._

/** Counters the traced online loop fills: per-decision latencies of
  * Skyscraper's controller, feasibility probes, placements, replans, and
  * the simulator's own wall time.
  */
final class OnlineStats {
  val chooseNs  = new LongSamples // `choose` calls that did not replan
  val observeNs = new LongSamples
  val replanNs  = new LongSamples // `choose` calls during which a plan was made
  var decisions = 0L
  var probes    = 0L              // `Probe.feasible` calls (fallback-chain depth)
  var cloudDecisions = 0L
  var controllerNs = 0L           // time inside the controller, wrapper included
  var simNs     = 0L              // `ClusterSim.run` wall
  var segments  = 0L
  val replansPerRun = scala.collection.mutable.ArrayBuffer[Int]()
}

/** Probe that forwards every question and counts feasibility checks. */
final class CountingProbe(inner: Probe, stats: OnlineStats) extends Probe {
  def lagSec: Double = inner.lagSec
  def bufferBytes: Double = inner.bufferBytes
  def bufferCapBytes: Double = inner.bufferCapBytes
  def cloudRemaining: Double = inner.cloudRemaining
  def feasible(cfgIdx: Int, p: Placement): Boolean = {
    stats.probes += 1
    inner.feasible(cfgIdx, p)
  }
  def cloudCost(cfgIdx: Int, p: Placement): Double = inner.cloudCost(cfgIdx, p)
  def work(cfgIdx: Int): Double = inner.work(cfgIdx)
}

/** Delegating controller around [[Skyscraper.OnlineController]]: times each
  * `choose` and `observe` from outside and tells replans apart by watching
  * `plansComputed`. Decisions pass through unchanged.
  */
final class TracedController(inner: Skyscraper.OnlineController, stats: OnlineStats)
    extends Controller {

  def choose(probe: Probe, segIdx: Int): Decision = {
    val plansBefore = inner.plansComputed
    val counted = new CountingProbe(probe, stats)
    val t0 = System.nanoTime()
    val d = inner.choose(counted, segIdx)
    val dt = System.nanoTime() - t0
    if (inner.plansComputed != plansBefore) stats.replanNs += dt else stats.chooseNs += dt
    stats.decisions += 1
    if (d.placement.cloudFrac > 0) stats.cloudDecisions += 1
    stats.controllerNs += System.nanoTime() - t0
    d
  }

  override def observe(segIdx: Int, cfgIdx: Int, qual: Double, report: Double): Unit = {
    val t0 = System.nanoTime()
    inner.observe(segIdx, cfgIdx, qual, report)
    val dt = System.nanoTime() - t0
    stats.observeNs += dt
    stats.controllerNs += dt
  }
}

object Online {

  /** Skyscraper's simulated ingestion with the controller wrapped. Builds
    * the simulator and controller from the same public constructors, with
    * the same arguments, as [[Skyscraper.run]].
    */
  def tracedRun(model: SkyscraperModel, test: SegmentTrace, cores: Int,
                bufferBytes: Double, cloudBudget: Double, stats: OnlineStats,
                useBuffer: Boolean = true, useCloud: Boolean = true): RunResult = {
    val w = model.workload
    val price = Machines.cloudPerCoreSec(Machines.cloudRatio)
    val effBuffer = if (useBuffer) bufferBytes else w.bitrateBytesPerSec * w.segSec * 2
    val effCloud  = if (useCloud) cloudBudget else 0.0
    val sim = new ClusterSim(test, cores, effBuffer, effCloud, price,
      w.bitrateBytesPerSec, w.cloudBytesPerSec, w.uplinkBytesPerSec)
    val inner = new Skyscraper.OnlineController(model, cores, test.nSegments, effCloud,
                                                price, useCloud)
    val t0 = System.nanoTime()
    val r = sim.run(new TracedController(inner, stats))
    stats.simNs += System.nanoTime() - t0
    stats.segments += test.nSegments
    stats.replansPerRun += inner.plansComputed
    r
  }
}
