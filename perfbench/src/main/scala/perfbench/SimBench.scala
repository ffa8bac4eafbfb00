package perfbench

import java.nio.ByteBuffer
import java.security.MessageDigest
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.SparkSession
import repro.baselines.{ChameleonStar, StaticBaseline}
import repro.core._
import repro.sim.{Machines, RunResult}
import repro.workload.{Covid, MoseiLong, Workload}

/** A simulated workload: the offline fit on `trainDays`, then the Table 2
  * runs (Static, Chameleon*, Skyscraper × machine catalogue) and the four
  * §5.4 ablation variants on the `testDays` that follow.
  */
final case class SimSpec(name: String, w: Workload, trainDays: Int, testDays: Int,
                         nSearch: Int, categorySampleFrac: Double) {
  def hyper(seed: Long): Hyper =
    Hyper(nCategories = 5, forecast = SimBench.Forecast, preSampleSize = 2000,
          nSearch = nSearch, maxK = 8, categorySampleFrac = categorySampleFrac, seed = seed)
}

/** One simulated ingestion of the test trace, without its per-segment arrays. */
final case class SimRun(system: String, vCpus: Int, variant: String, budget: Double,
                        nSegments: Int, qualityPct: Double, cloudDollars: Double,
                        overflows: Int, wallNs: Long)

object SimBench {
  /** One timed pass: fit, then sweep. Traced passes carry their spans. */
  final case class Iter(traced: Boolean, fitNs: Long, sweepNs: Long, runs: Seq[SimRun],
                        digest: String, nTest: Int, fits: Seq[FitLayers],
                        tracer: Option[Tracer], online: Option[OnlineStats],
                        gcS: Double, tasks: Int)

  /** Streams one iteration fits and sweeps: the run's seed and seeds
    * derived from it. Averaging over two streams narrows the spread that a
    * single seed's content and filtered config count |K| put on the
    * quality and the timings.
    */
  val SubSeeds = 2
  def seeds(seed: Long): Seq[Long] = (0 until SubSeeds).map(j => seed + j * 1000003L)

  val BufferBytes = 4e9
  /** Short forecast windows so a 2-day history trains the MLP and a 1-day
    * test trace sees four plan intervals.
    */
  val Forecast = ForecastSpec(inputDays = 0.5, nSplits = 8, horizonDays = 0.25, sampleEveryMin = 15)

  val covid     = SimSpec("covid", Covid, trainDays = 2, testDays = 1, nSearch = 4,
                          categorySampleFrac = 0.05)
  val moseiLong = SimSpec("mosei-long", MoseiLong, trainDays = 2, testDays = 2, nSearch = 10,
                          categorySampleFrac = 0.10)

  val Ablation = Seq(("no buffering, no cloud", false, false), ("only buffering", true, false),
                     ("only cloud", false, true), ("buffering & cloud", true, true))

  /** The Table 2 + §5.4 runs. With `tracing`, baseline calls get spans and
    * Skyscraper runs go through the delegating controller.
    */
  def sweep(spec: SimSpec, model: SkyscraperModel, test: SegmentTrace,
            tracing: Option[(Tracer, OnlineStats)], digest: MessageDigest): Seq[SimRun] = {
    val w = spec.w
    val hours = spec.testDays * 24.0
    val out = ArrayBuffer[SimRun]()
    def go(system: String, span: String, vCpus: Int, variant: String, budget: Double)
          (body: => RunResult): Unit = {
      val t0 = System.nanoTime()
      val r = tracing match {
        case Some((tr, _)) => tr.span(span)(body)
        case None          => body
      }
      val ns = System.nanoTime() - t0
      digest.update(s"$system/$vCpus/$variant".getBytes("UTF-8"))
      val bb = ByteBuffer.allocate(4 * r.chosen.length + 24)
      r.chosen.foreach(bb.putInt)
      bb.putDouble(r.qualityPct).putDouble(r.cloudDollars).putDouble(r.workCoreSec)
      digest.update(bb.array())
      out += SimRun(system, vCpus, variant, budget, test.nSegments, r.qualityPct,
                    r.cloudDollars, r.overflows, ns)
    }
    def sky(vCpus: Int, budget: Double, useBuffer: Boolean, useCloud: Boolean): RunResult =
      tracing match {
        case Some((_, st)) => Online.tracedRun(model, test, vCpus, BufferBytes, budget, st,
                                               useBuffer, useCloud)
        case None => Skyscraper.run(model, test, vCpus, BufferBytes, budget,
                                    useBuffer = useBuffer, useCloud = useCloud)
      }

    for (m <- Machines.catalogue)
      go("Static", "baselines.static", m.vCpus, "table2", 0.0) {
        StaticBaseline.run(test, m.vCpus, BufferBytes, w.bitrateBytesPerSec,
                           w.cloudBytesPerSec, w.uplinkBytesPerSec)
      }
    for (m <- Machines.catalogue)
      go("Chameleon*", "baselines.chameleon", m.vCpus, "table2", 0.0) {
        ChameleonStar.run(test, m.vCpus, BufferBytes, w.bitrateBytesPerSec,
                          w.cloudBytesPerSec, w.uplinkBytesPerSec)
      }
    for (m <- Machines.catalogue) {
      val budget = 0.12 * Machines.onPremDollars(m, hours)
      go("Skyscraper", "skyscraper.run", m.vCpus, "table2", budget)(sky(m.vCpus, budget, true, true))
    }
    val budget = 0.25 * Machines.onPremDollars(Machines.e2s8, hours)
    for ((name, buf, cloud) <- Ablation)
      go("Skyscraper", "skyscraper.run", 8, name, budget)(sky(8, budget, buf, cloud))
    out.toSeq
  }

  /** Skyscraper's quality in Table 2: mean over the machine catalogue, in %. */
  def qualityPct(runs: Seq[SimRun]): Double = {
    val t2 = runs.filter(r => r.system == "Skyscraper" && r.variant == "table2")
    100.0 * t2.map(_.qualityPct).sum / t2.size
  }
}

/** Runs one simulated workload for the requested time and fills `rep`. */
final class SimBench(spec: SimSpec, spark: SparkSession, o: Opts, sessionNs: Long) {
  import Common._
  import SimBench._

  private val hypers = seeds(o.seed).map(spec.hyper)
  private val h = hypers.head
  private val sc = spark.sparkContext

  private def hexDigest(d: MessageDigest): String = d.digest().map("%02x".format(_)).mkString

  /** Set-up pass `i`: one fit and sweep of the timed size on a stream of
    * its own, to load classes and compile the hot paths before timing. The
    * last pass of a traced run warms the traced path instead.
    */
  private def warmUp(i: Int, traced: Boolean): Unit = {
    val d = MessageDigest.getInstance("SHA-256")
    val hp = spec.hyper(o.seed + 1000003L * (SubSeeds + i))
    if (traced) {
      val tr = new Tracer
      val (model, _, test, _) = Offline.tracedFit(spark, spec.w, hp, spec.trainDays,
                                                  spec.testDays, tr, new SparkCounters, "warmup")
      sweep(spec, model, test, Some((tr, new OnlineStats)), d)
    } else {
      val (model, _, test) = Skyscraper.fitAndTrace(spark, spec.w, hp, spec.trainDays, spec.testDays)
      sweep(spec, model, test, None, d)
    }
  }

  /** Coverage: a run size must not hide a layer. */
  private def coverage(rep: Report, nTest: Int): Unit = {
    val horizonSegs = math.max(1, (h.forecast.horizonDays * 86400.0 / spec.w.segSec).toInt)
    val replans = (nTest + horizonSegs - 1) / horizonSegs
    rep.check(replans >= 2, s"each Skyscraper run replans only $replans time(s); need >= 2")
    if (spec.w eq MoseiLong) {
      val days = spec.trainDays + spec.testDays
      val ls = spec.w.streamSpec(days, o.seed).loadSpec
      rep.check(ls.exists(l => l.spikeLongFromSec >= spec.trainDays * 86400.0 &&
                               l.spikeLongToSec <= days * 86400.0),
        s"the MOSEI-LONG plateau ${ls.map(l => (l.spikeLongFromSec, l.spikeLongToSec))} " +
        s"is not inside the test days [${spec.trainDays}, $days)")
    }
  }

  /** One fit and sweep per seed of [[SimBench.seeds]]; times are means
    * over them.
    */
  private def iteration(idx: Int, traced: Boolean, rep: Report,
                        live: ArrayBuffer[AnyRef]): Iter = {
    val digest = MessageDigest.getInstance("SHA-256")
    live.clear()
    val tracing = if (traced) Some((new Tracer, new OnlineStats)) else None
    val counters = new SparkCounters
    if (traced) sc.addSparkListener(counters)
    val gc0 = gcSeconds()
    val parts = try hypers.zipWithIndex.map { case (hp, j) =>
      val (model, train, test, fitNs, fit) = tracing match {
        case None =>
          val ((m, tn, tt), ns) =
            timed(Skyscraper.fitAndTrace(spark, spec.w, hp, spec.trainDays, spec.testDays))
          (m, tn, tt, ns, None)
        case Some((tr, _)) =>
          val (m, tn, tt, f) = Offline.tracedFit(spark, spec.w, hp, spec.trainDays,
                                                 spec.testDays, tr, counters, s"it$idx.$j")
          (m, tn, tt, tr.spans.filter(_.name == "fit").last.durNs, Some(f))
      }
      val (runs, sweepNs) = timed(tracing match {
        case Some((tr, _)) => tr.span("sweep")(sweep(spec, model, test, tracing, digest))
        case None          => sweep(spec, model, test, None, digest)
      })
      digest.update(model.configs.map(_.id).mkString(",").getBytes("UTF-8"))
      live ++= Seq(model, train, test)
      checkRuns(rep, train, test, runs)
      (fitNs, sweepNs, runs, test.nSegments, fit)
    } finally if (traced) { counters.settle(); sc.removeSparkListener(counters) }

    for ((_, st) <- tracing if !st.replansPerRun.forall(_ >= 2))
      rep.problem(s"a traced Skyscraper run replanned fewer than 2 times: ${st.replansPerRun}")
    Iter(traced, parts.map(_._1).sum / parts.size, parts.map(_._2).sum / parts.size,
         parts.flatMap(_._3), hexDigest(digest), parts.head._4, parts.flatMap(_._5),
         tracing.map(_._1), tracing.map(_._2), gcSeconds() - gc0, counters.taskCount)
  }

  /** Correctness of one fit and sweep: invariants that hold for any seed. */
  private def checkRuns(rep: Report, train: SegmentTrace, test: SegmentTrace,
                        runs: Seq[SimRun]): Unit = {
    val traceBad = traceProblems("train", train) ++ traceProblems("test", test)
    traceBad.foreach(rep.problem)
    val q = qualityPct(runs)
    val qBad = !(q > 0.0 && q <= 100.0)
    if (qBad) rep.problem(s"quality_pct $q is outside (0, 100]")
    val sky = runs.filter(_.system == "Skyscraper")
    val ops = sky.map(_.nSegments.toLong).sum
    rep.attempted += ops
    if (traceBad.nonEmpty || qBad) rep.failed += ops
    else sky.foreach { r =>
      val overBudget = r.cloudDollars > r.budget + 1e-9
      if (r.overflows > 0) rep.problem(s"Skyscraper@${r.vCpus} ${r.variant}: ${r.overflows} overflows")
      if (overBudget) rep.problem(s"Skyscraper@${r.vCpus} ${r.variant}: cloud $$${r.cloudDollars} > budget $$${r.budget}")
      rep.failed += (if (overBudget) r.nSegments.toLong else r.overflows.toLong)
    }
  }

  def run(rep: Report): Unit = {
    val days = spec.trainDays + spec.testDays
    rep.info ++= Seq("train_days" -> spec.trainDays.toString, "test_days" -> spec.testDays.toString)

    // Set-up, three times; the first pass also paid for the session start.
    val setupNs = (1 to 3).map(i => timed(warmUp(i, o.trace && i == 3))._2 + (if (i == 1) sessionNs else 0L))

    val live = ArrayBuffer[AnyRef]()
    val iters = ArrayBuffer[Iter]()
    val deadline = now() + o.seconds * 1000000000L
    while (iters.isEmpty || (o.trace && iters.size < 2) || (now() < deadline && iters.size < 100))
      iters += iteration(iters.size, o.trace && iters.size % 2 == 1, rep, live)
    coverage(rep, iters.head.nTest)

    // Traced and untraced iterations must produce the same results.
    val digests = iters.map(_.digest).distinct
    if (digests.size != 1) {
      rep.problem(s"iterations disagree (configs kept, chosen configs or quality): ${digests.size} distinct results")
      rep.failed = rep.attempted
    }

    // The fitted models and their traces, of the last iteration.
    val heapMb = retainedHeapMb(() => live.clear())

    val plain = iters.filterNot(_.traced)
    val skyWalls = plain.flatMap(_.runs.filter(_.system == "Skyscraper").map(_.wallNs / 1e6))
    val videoS = plain.map(it => it.runs.map(_.nSegments.toLong).sum * spec.w.segSec).sum
    val sweepWall = plain.map(it => secs(it.sweepNs) * SubSeeds).sum
    rep.e2e ++= Seq(
      Metric("setup_s", Stats.median(setupNs.map(secs)), "s", "median of 3 set-up passes"),
      Metric("fit_s", Stats.median(plain.map(it => secs(it.fitNs))), "s"),
      Metric("sweep_s", Stats.median(plain.map(it => secs(it.sweepNs))), "s"),
      Metric("heap_retained_mb", heapMb, "MB"),
      Metric("batch_p50_ms", Stats.median(skyWalls), "ms",
             s"one simulated Skyscraper run; n=${skyWalls.size}"),
      Stats.tailMetric("batch_tail_ms", skyWalls, "ms"),
      Metric("ingest_rt_factor", videoS / sweepWall, "video-s/wall-s",
             "simulated video seconds per sweep wall second"),
    )
    rep.e2eExtra += Metric("quality_pct", qualityPct(iters.head.runs), "%")
    rep.samples ++= Seq("skyscraper_run_ms" -> skyWalls, "fit_s" -> plain.map(it => secs(it.fitNs)),
                        "sweep_s" -> plain.map(it => secs(it.sweepNs)), "setup_s" -> setupNs.map(secs))
    rep.info ++= Seq("iterations" -> plain.size.toString,
                     "seeds_per_iteration" -> SubSeeds.toString,
                     "test_segments" -> iters.head.nTest.toString,
                     "sim_runs_per_sweep" -> iters.head.runs.size.toString)

    if (o.trace) {
      val traced = iters.filter(_.traced)
      val tr = traced.last.tracer.get
      val (synthS, synthSegs) = Offline.synthPass(spark, spec.w, days, o.seed, tr)
      val sts = traced.flatMap(_.online)
      val choose  = sts.flatMap(_.chooseNs.values.map(_ / 1e3))
      val observe = sts.flatMap(_.observeNs.values.map(_ / 1e3))
      val replan  = sts.flatMap(_.replanNs.values.map(_ / 1e6))
      val decisions = sts.map(_.decisions).sum.toDouble
      def perSweep(span: String) = Stats.median(traced.map(_.tracer.get.seconds(span).sum / SubSeeds))
      val overhead = Stats.median(traced.map(it => secs(it.fitNs + it.sweepNs))) -
                     Stats.median(plain.map(it => secs(it.fitNs + it.sweepNs)))
      rep.layers ++= Seq(
        Metric("video.synth_s", synthS, "s"),
        Metric("video.segments_per_s", synthSegs / synthS, "1/s"),
      ) ++ Offline.layerMetrics(traced.flatMap(_.fits), sparkThreads) ++ Seq(
        Metric("planner.replans", Stats.median(sts.map(_.replansPerRun.sum.toDouble)), "count"),
        Metric("planner.replan_ms_p50", Stats.median(replan), "ms"),
        Metric("switcher.probes_per_decision", sts.map(_.probes).sum / decisions, "ratio"),
        Metric("switcher.cloud_share", sts.map(_.cloudDecisions).sum / decisions, "ratio"),
        Metric("sim.segments", Stats.median(sts.map(_.segments.toDouble)), "count"),
        Metric("ingest.spark_jobs_per_batch", 0.0, "count"),
        Metric("ingest.object_rows_per_batch", 0.0, "count"),
        Metric("ingest.bytes_written", 0.0, "bytes"),
        Metric("ingest.config_switches", 0.0, "count"),
        Metric("jvm.gc_s", Stats.median(traced.map(_.gcS)), "s"),
        Metric("spark.tasks", Stats.median(traced.map(_.tasks.toDouble)), "count"),
        Metric("trace.overhead_s", overhead, "s"),
      )
      val simSelfUs = sts.map(s => s.simNs - s.controllerNs).sum / 1e3 / sts.map(_.segments).sum
      rep.extra ++= Seq(
        Metric("switcher.choose_us_p50", Stats.median(choose), "us"),
        Stats.tailMetric("switcher.choose_us_tail", choose, "us"),
        Metric("switcher.observe_us_p50", Stats.median(observe), "us"),
        Metric("switcher.useful_per_attempt", decisions / sts.map(_.probes).sum, "ratio",
               "decisions per feasibility probe"),
        Metric("sim.self_us_per_segment", simSelfUs, "us"),
        Metric("baselines.static_s", perSweep("baselines.static"), "s"),
        Metric("baselines.chameleon_s", perSweep("baselines.chameleon"), "s"),
        Metric("skyscraper.run_s", perSweep("skyscraper.run"), "s"),
      )
      rep.spans = tr.spans
    }
  }
}
