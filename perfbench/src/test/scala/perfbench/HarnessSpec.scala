package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.sim.RunResult
import repro.util.DetHash
import repro.workload.Covid

/** Tests of the benchmark harness itself: the tail rule, span self time,
  * and the delegating controller. No Spark session is needed.
  */
class HarnessSpec extends AnyFunSuite {

  test("tail: highest whole percentile with at least 10 samples beyond it") {
    assert(Stats.tail((1 to 10).map(_.toDouble)).isEmpty)
    assert(Stats.tail((1 to 100).map(_.toDouble)) == Some((90, 90.0, 100)))
    assert(Stats.tail((1 to 20).map(_.toDouble)) == Some((50, 10.0, 20)))
    for (n <- 11 to 400) {
      val xs = (1 to n).reverse.map(_.toDouble) // unsorted input
      val Some((p, v, m)) = Stats.tail(xs)
      assert(m == n)
      assert(xs.count(_ > v) >= 10, s"n=$n p=$p")
      // One percentile higher would leave fewer than 10 beyond.
      val nextRank = math.ceil((p + 1) / 100.0 * n).toInt
      assert(p == 99 || n - nextRank < 10, s"n=$n p=$p")
    }
  }

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("self time subtracts the union of overlapping children, clipped to the parent") {
    val parent = Span(0, -1, "p", 0, 100)
    val spans = Seq(parent,
      Span(1, 0, "a", 10, 40),
      Span(2, 0, "b", 30, 60),   // overlaps a
      Span(3, 0, "c", 90, 120),  // runs past the parent's end
      Span(4, 1, "a.child", 15, 35), // a grandchild: not the parent's to subtract
      Span(5, -1, "other", 0, 100))
    assert(Tracer.selfNs(spans, parent) == 100 - (60 - 10) - (100 - 90))
    assert(Tracer.selfNs(spans, spans(1)) == 30 - 20)
    assert(Tracer.selfNs(spans, spans(5)) == 100)
  }

  test("tracer nests spans and records parents") {
    val tr = new Tracer
    tr.span("outer") { tr.span("inner") { () }; tr.span("inner") { () } }
    val ss = tr.spans
    val outer = ss.find(_.name == "outer").get
    assert(ss.count(s => s.name == "inner" && s.parent == outer.id) == 2)
    assert(outer.parent == -1)
    assert(tr.seconds("inner").size == 2)
  }

  /** A small COVID trace built from the scalar model: 1 training day and
    * 12 test hours of 2-s segments with a daytime difficulty hump and
    * regime blocks.
    */
  private def smallTrace(days: Double): SegmentTrace = {
    val w = Covid
    val n = (days * 86400 / w.segSec).toInt
    val k = w.profiles.filter(p => Set(0, 5, 17, 22, 30, 33, 38).contains(p.id))
    val regime = Array.tabulate(n)(i => (DetHash.uniform(i / 21, 3L, 1L) * 4).toInt)
    val diff = Array.tabulate(n) { i =>
      val hour = (i * w.segSec / 3600.0) % 24
      val hump = if (hour > 6 && hour < 20) math.sin((hour - 6) / 14 * math.Pi) else 0.0
      math.min(1.0, 0.05 + 0.3 * hump + Array(0.0, 0.12, 0.45, 0.65)(regime(i)) +
               0.06 * (DetHash.uniform(i, 3L, 2L) - 0.5))
    }
    SegmentTrace(w.segSec, Array.tabulate(n)(i => (i * w.segSec / 86400).toInt), regime, diff,
      Array.fill(n)(1.0), k,
      Array.tabulate(n, k.size)((i, j) => w.quality(k(j), i, diff(i), 1.0, regime(i))),
      Array.tabulate(n, k.size)((_, j) => w.costPerSec(k(j), 1.0) * w.segSec),
      Array.tabulate(n, k.size)((i, j) => w.reported(k(j), i, diff(i), 1.0, regime(i))))
  }

  private def same(a: RunResult, b: RunResult): Unit = {
    assert(java.util.Arrays.equals(a.chosen, b.chosen))
    assert(a.copy(chosen = null) == b.copy(chosen = null))
  }

  test("the delegating controller leaves Skyscraper's run unchanged") {
    val full  = smallTrace(1.5)
    val split = full.dayStart(1)
    val train = full.slice(0, split)
    val test  = full.slice(split, full.nSegments)
    val hyper = Hyper(nCategories = 3, seed = 5,
      forecast = ForecastSpec(inputDays = 0.25, nSplits = 4, horizonDays = 0.1, sampleEveryMin = 15))
    val model = Skyscraper.fitFromTrace(Covid, train.configs, train, hyper)

    for ((cores, budget, buf, cloud) <- Seq((4, 0.5, true, true), (2, 0.05, false, true),
                                           (8, 0.0, true, false))) {
      val plain = Skyscraper.run(model, test, cores, 4e9, budget, useBuffer = buf, useCloud = cloud)
      val stats = new OnlineStats
      val traced = Online.tracedRun(model, test, cores, 4e9, budget, stats, buf, cloud)
      same(plain, traced)
      assert(stats.decisions == test.nSegments)
      assert(stats.chooseNs.size + stats.replanNs.size == test.nSegments)
      assert(stats.observeNs.size == test.nSegments)
      assert(stats.replansPerRun.last == stats.replanNs.size && stats.replanNs.size >= 2)
      assert(stats.probes >= stats.decisions)
    }
  }
}
