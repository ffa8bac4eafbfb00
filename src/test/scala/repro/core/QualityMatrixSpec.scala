package repro.core

import repro.SparkSpec
import repro.workload.{ConfigProfile, Covid, MoseiHigh, Workload}

class QualityMatrixSpec extends SparkSpec {

  private lazy val configs = Covid.profiles.sortBy(_.unitCost).grouped(8).map(_.head).toVector
  private lazy val trace = QualityMatrix.trace(spark, Covid, 1, configs)

  test("trace dimensions") {
    assert(trace.nSegments == 86400 / 2)
    assert(trace.nConfigs == configs.length)
    assert(trace.qual.length == trace.nSegments)
    assert(trace.cost.length == trace.nSegments)
  }

  test("trace values match the scalar workload model") {
    // One segment of each content regime: regimes 2 and 3 scale ρ by the
    // config's affinity, so a trace that ignored the regime would differ.
    val idxs = (0 until Covid.NRegimes).map(r => trace.regime.indexOf(r))
    assert(idxs.forall(_ >= 0), s"regimes present: ${trace.regime.distinct.sorted.mkString(",")}")
    var affinityMatters = false
    for (i <- idxs; k <- configs.indices) {
      val p = configs(k)
      val (d, l, reg) = (trace.difficulty(i), trace.load(i), trace.regime(i))
      val expQ = Covid.quality(p, i.toLong, d, l, reg)
      val expR = Covid.reported(p, i.toLong, d, l, reg)
      val expC = Covid.costPerSec(p, l) * Covid.segSec
      assert(math.abs(trace.qual(i)(k) - expQ) < 1e-9, s"qual seg=$i k=$k")
      assert(math.abs(trace.report(i)(k) - expR) < 1e-9, s"report seg=$i k=$k")
      assert(math.abs(trace.cost(i)(k) - expC) < 1e-9, s"cost seg=$i k=$k")
      if (math.abs(expR - Covid.reported(p, i.toLong, d, l)) > 1e-6) affinityMatters = true
    }
    assert(affinityMatters, "no sampled cell depends on the regime")
  }

  /** Pinned per-config (Σ qual, Σ cost, Σ report) of a 1-day trace at
    * seed 3. Any change to the quality or cost law moves them.
    */
  private val pinnedDigests = Map(
    "COVID" -> (Seq(38, 31, 26, 10, 11), Seq(
      (2713.7574931577624, 6624.000000003797, 25565.619877625213),
      (2713.9622928363633, 67679.99999997242, 25565.62899411783),
      (2713.1851638284843, 159840.00000001775, 25565.595505898116),
      (2715.133976038127, 479519.9999996411, 25565.61634359545),
      (4176.877986213685, 1723679.999998856, 32234.518003144192))),
    "MOSEI-HIGH" -> (Seq(651, 453, 225, 615, 585, 273, 621, 357, 249, 297, 393, 159, 51), Seq(
      (3710.4485045114834, 19403.84999999975, 3710.4485045114834),
      (4109.4009808173405, 54330.78000000305, 4109.4009808173405),
      (4750.103787715634, 90551.29999999155, 4750.103787715634),
      (4739.890745975493, 113189.125, 4739.890745975493),
      (5062.972003955362, 135826.95000000627, 5062.972003955362),
      (4964.4654040230325, 181102.5999999831, 4964.4654040230325),
      (5720.37887975586, 226378.25, 5720.37887975586),
      (5797.735677687782, 271653.90000001254, 5797.735677687782),
      (6109.759967458873, 362205.1999999662, 6109.759967458873),
      (6439.106056368614, 452756.5, 6439.106056368614),
      (6798.135417647013, 543307.8000000251, 6798.135417647013),
      (7329.181050527109, 814961.7000000145, 7329.181050527109),
      (9136.762519536465, 1629923.400000029, 9136.762519536465))),
  )

  test("trace digests match the pinned law (COVID, MOSEI-HIGH)") {
    val moseiCfgs = MoseiHigh.profiles.filter(p => p.streamCap == 16.0).sortBy(_.unitCost)
      .grouped(10).map(_.head).toVector
    for ((w, cfgs) <- Seq[(Workload, Vector[ConfigProfile])]((Covid, configs),
                                                             (MoseiHigh, moseiCfgs))) {
      val (ids, sums) = pinnedDigests(w.name)
      assert(cfgs.map(_.id) == ids, w.name)
      val t = QualityMatrix.trace(spark, w, 1, cfgs, seed = 3L)
      def close(a: Double, b: Double) = math.abs(a - b) <= 1e-9 * math.abs(b)
      for (k <- cfgs.indices) {
        val got = (t.qual.map(_(k)).sum, t.cost.map(_(k)).sum, t.report.map(_(k)).sum)
        val exp = sums(k)
        assert(close(got._1, exp._1) && close(got._2, exp._2) && close(got._3, exp._3),
          s"${w.name} k=$k: got $got, pinned $exp")
      }
    }
  }

  test("day index is ordered and dayStart finds boundaries") {
    assert(trace.day.head == 0)
    assert(trace.dayStart(0) == 0)
    val t2 = QualityMatrix.trace(spark, Covid, 2, configs.take(2))
    assert(t2.dayStart(1) == 86400 / 2)
    assert(t2.day(t2.dayStart(1)) == 1)
    assert(t2.day(t2.dayStart(1) - 1) == 0)
  }

  test("slice preserves alignment") {
    val s = trace.slice(100, 200)
    assert(s.nSegments == 100)
    assert(s.difficulty(0) == trace.difficulty(100))
    assert(s.qual(5)(0) == trace.qual(105)(0))
    assert(s.configs == trace.configs)
  }

  test("maxTotalQuality is an upper bound on any config's total") {
    for (k <- configs.indices) {
      val tot = trace.qual.map(_(k)).sum
      assert(tot <= trace.maxTotalQuality + 1e-9)
    }
    assert(trace.maxTotalQuality > 0)
  }

  test("MOSEI trace carries varying load and load-scaled costs") {
    val cfgs = MoseiHigh.profiles.filter(p => p.streamCap == 16.0).sortBy(_.unitCost)
      .grouped(10).map(_.head).toVector
    val t = QualityMatrix.trace(spark, MoseiHigh, 1, cfgs)
    assert(t.load.distinct.length > 3)
    val i = t.load.indexWhere(_ > 20)
    assert(i >= 0)
    assert(math.abs(t.cost(i)(0) - cfgs(0).unitCost * 16.0 * MoseiHigh.segSec) < 1e-9)
  }
}
