package perfbench

import java.io.File
import java.nio.file.Files
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.Oracle
import repro.core._
import repro.etl.{StreamingIngest, VetlPipeline}
import repro.sim.Machines
import repro.workload.Covid

/** The Structured Streaming ingest job over one-segment JSON batch files cut
  * from a held-out COVID day. Closed loop: `Trigger.AvailableNow` with one
  * file per trigger hands over the next file only after the previous batch
  * commits. Model fit, plan and file writing are set-up; each timed
  * iteration streams every file through a fresh query.
  */
final class IngestBench(spark: SparkSession, o: Opts, sessionNs: Long, runDir: File) {
  import Common._
  import IngestBench._

  private val w = Covid
  private val sc = spark.sparkContext
  /** One training day, then the held-out day the batch files come from. */
  private val TrainDays = 1
  private val BatchFiles = 9
  private val WarmFiles = 3
  /** The plan budget: an e2-standard-16's cores, so the plan mixes configs. */
  private val PlanCores = Machines.e2s16.vCpus
  private val segsPerDay = (86400 / w.segSec).toInt

  private val h = Hyper(nCategories = 5, forecast = SimBench.Forecast, preSampleSize = 2000,
                        nSearch = 4, maxK = 8, categorySampleFrac = 0.05, seed = o.seed)

  /** `n` daytime (07:00–19:00) segments of the held-out day, taken at evenly
    * spaced quantiles of their difficulty (offset `at` ∈ (0, 1) within each
    * step), in stream order. A fixed difficulty profile keeps the content
    * regimes that a few batches happen to land on from swinging a run's
    * quality and batch cost.
    */
  private def segIds(n: Int, at: Double): Seq[Long] = {
    val from = TrainDays * segsPerDay + 7 * 3600 / w.segSec.toInt
    val day = w.stream(spark, TrainDays + 1, o.seed)
      .where(col("segId") >= from && col("segId") < from + 12 * 3600 / w.segSec.toInt)
      .select("difficulty", "segId").collect()
      .map(r => (r.getDouble(0), r.getLong(1))).sorted
    (0 until n).map(i => day(((i + at) / n * day.length).toInt)._2).sorted
  }

  /** Write one JSON file per segment, with increasing modification times so
    * the file source hands them over in segment order.
    */
  private def cutFiles(dir: File, ids: Seq[Long]): Map[Long, Double] = {
    dir.mkdirs()
    val df = w.stream(spark, TrainDays + 1, o.seed).where(col("segId").isin(ids: _*)).orderBy("segId").cache()
    try {
      val json = df.toJSON.collect()
      val diff = df.select("segId", "difficulty").collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
      val base = System.currentTimeMillis() - 60000L
      json.zipWithIndex.foreach { case (line, i) =>
        val f = new File(dir, f"seg$i%03d.json")
        Files.writeString(f.toPath, line + "\n")
        f.setLastModified(base + i * 1000L)
      }
      diff
    } finally df.unpersist()
  }

  private def stream(model: SkyscraperModel, plan: KnobPlan, inDir: File, itDir: File)
      : (StreamingIngest, Long, Seq[org.apache.spark.sql.streaming.StreamingQueryProgress], Option[String]) = {
    val ing = new StreamingIngest(model, plan)
    val t0 = now()
    val q = ing.start(spark, inDir.getAbsolutePath, new File(itDir, "out").getAbsolutePath,
                      new File(itDir, "ck").getAbsolutePath)
    val err = try { q.awaitTermination(); None } catch { case e: Exception => Some(e.toString) }
    val wall = now() - t0
    (ing, wall, q.recentProgress.toSeq.filter(_.numInputRows > 0), err)
  }

  private def setUp(rep: Int, traced: Boolean): Setup = {
    val dir = new File(runDir, s"setup$rep")
    val tracer = if (traced) Some(new Tracer) else None
    val (model, train, test, fitNs, fit) = tracer match {
      case None =>
        val ((m, tn, tt), ns) = timed(Skyscraper.fitAndTrace(spark, w, h, TrainDays, 1))
        (m, tn, tt, ns, None)
      case Some(tr) =>
        val counters = new SparkCounters
        sc.addSparkListener(counters)
        try {
          val (m, tn, tt, layers) = Offline.tracedFit(spark, w, h, TrainDays, 1, tr, counters, "setup")
          (m, tn, tt, tr.spans.filter(_.name == "fit").last.durNs, Some(layers))
        } finally sc.removeSparkListener(counters)
    }
    // The plan the job runs with (as the streaming entry point builds it).
    val (plan, planNs) = timed {
      val r = model.forecaster.predict(model.trainCats, model.trainCats.length)
      KnobPlanner.plan(model.qualHat, model.costHat, r, PlanCores * w.segSec)
    }
    val ids = segIds(BatchFiles, 0.5)
    val inDir = new File(dir, "in")
    val diff = cutFiles(inDir, ids)
    // Warm the streaming path on other segments of the same day.
    val warmDir = new File(dir, "warm")
    cutFiles(new File(warmDir, "in"), segIds(WarmFiles, 0.25))
    stream(model, plan, new File(warmDir, "in"), warmDir)
    Setup(model, train, test, plan, inDir, diff, ids, fitNs, planNs, fit, tracer)
  }

  private def iteration(idx: Int, traced: Boolean, s: Setup): Iter = {
    val itDir = new File(runDir, s"it$idx")
    val counters = new SparkCounters
    if (traced) sc.addSparkListener(counters)
    val gc0 = gcSeconds()
    val tasks0 = counters.taskCount
    try {
      val startMs = System.currentTimeMillis()
      val (ing, wall, progress, err) = stream(s.model, s.plan, s.inDir, itDir)
      val endMs = System.currentTimeMillis()
      if (traced) counters.settle()
      def dur(p: org.apache.spark.sql.streaming.StreamingQueryProgress, k: String) =
        Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
      Iter(traced, wall, progress.map(dur(_, "triggerExecution")), progress.map(dur(_, "addBatch")),
           ing.chosenLog.toSeq, new File(itDir, "out"), s.inDir,
           counters.jobsBetween(startMs, endMs), counters.taskCount - tasks0,
           gcSeconds() - gc0, err)
    } finally if (traced) sc.removeSparkListener(counters)
  }

  /** Check one iteration's loaded output; with `oracle`, also against
    * DuckDB, batch by batch. Every iteration streams the same files, so the
    * other iterations are held to the first one's digest.
    * Returns (failed batches, per-segment detections, digest).
    */
  private def verify(it: Iter, s: Setup, rep: Report, oracle: Boolean)
      : (Int, Map[Long, Long], String) = {
    val n = s.ids.size
    var failedBatches = 0
    if (it.error.nonEmpty) rep.problem(s"stream failed: ${it.error.get}")
    if (it.chosen.size != n) {
      rep.problem(s"chosenLog has ${it.chosen.size} entries for $n input files")
      failedBatches += math.abs(n - it.chosen.size)
    }
    if (it.trigMs.size != n) rep.problem(s"${it.trigMs.size} batch progress reports for $n files")
    val out = spark.read.parquet(it.outDir.getAbsolutePath)
    val byCfg = out.groupBy("segId", "cfgId").count().collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getLong(2)))
    val counts = byCfg.groupBy(_._1).map { case (seg, rs) => seg -> rs.map(_._3).sum }
    val input = spark.read.schema(new StreamingIngest(s.model, s.plan).schema).json(it.inDir.getAbsolutePath)
    val batches = s.ids.zip(it.chosen)
    // Each segment's rows must carry the config its batch chose.
    for ((seg, k) <- batches; (_, cfgId, _) <- byCfg.filter(_._1 == seg) if cfgId != s.model.configs(k).id) {
      rep.problem(s"segment $seg loaded with config $cfgId, batch chose ${s.model.configs(k).id}")
      failedBatches += 1
    }
    for ((k, group) <- batches.groupBy(_._2) if oracle) {
      val ids = group.map(_._1)
      val p = s.model.configs(k)
      try Oracle.assertEquivalent(
        out.where(col("segId").isin(ids: _*)).groupBy("segId").agg(count(lit(1)) as "detections"),
        VetlPipeline.transformCountsSql(p, StreamingIngest.sampleEveryOf(p)),
        "objects" -> VetlPipeline.objects(w, input.where(col("segId").isin(ids: _*))))
      catch {
        case e: Exception =>
          rep.problem(s"config ${p.id}: loaded counts differ from DuckDB: ${e.getMessage.take(300)}")
          failedBatches += ids.size
      }
    }
    val digest = (it.chosen.mkString(",") + "|" + s.ids.map(i => counts.getOrElse(i, 0L)).mkString(","))
    (math.min(failedBatches, n), counts, digest)
  }

  /** The last set-up's output. Held in a field, never in a local, so that
    * dropping it at the end leaves it unreachable.
    */
  private var setup: Setup = _

  /** Sets up three times; returns (pass ns, fit ns, fit traced) per pass. */
  private def setUpAll(): Seq[(Long, Long, Boolean)] =
    (1 to 3).map { i =>
      val (st, ns) = timed(setUp(i, o.trace && i == 3))
      if (setup != null) deleteTree(setup.inDir.getParentFile)
      setup = st
      (ns + (if (i == 1) sessionNs else 0L), st.fitNs, st.fit.nonEmpty)
    }

  def run(rep: Report): Unit = {
    rep.info ++= Seq("train_days" -> TrainDays.toString, "test_days" -> "1",
                     "batch_files" -> BatchFiles.toString, "plan_cores" -> PlanCores.toString)
    val passes = setUpAll()

    val iters = ArrayBuffer[Iter]()
    val deadline = now() + o.seconds * 1000000000L
    while (iters.isEmpty || (o.trace && iters.size < 2) || (now() < deadline && iters.size < 100))
      iters += iteration(iters.size, o.trace && iters.size % 2 == 1, setup)

    // Correctness, then quality from the loaded counts.
    val checked = iters.zipWithIndex.map { case (it, i) =>
      val (bad, counts, digest) = verify(it, setup, rep, oracle = i == 0)
      rep.attempted += setup.ids.size
      rep.failed += bad
      (counts, digest)
    }
    if (checked.map(_._2).distinct.size != 1) {
      rep.problem("iterations disagree on chosen configs or loaded counts")
      rep.failed = rep.attempted
    }
    val firstChosen = iters.head.chosen
    val quality = setup.ids.zip(firstChosen).map { case (seg, k) =>
      val every = StreamingIngest.sampleEveryOf(setup.model.configs(k))
      val frames = (VetlPipeline.BaseFps * w.segSec).toInt
      val possible = ((frames + every - 1) / every) * (1 + (setup.difficulty(seg) * 12).toInt)
      checked.head._1.getOrElse(seg, 0L).toDouble / possible
    }
    val qualityPct = 100.0 * quality.sum / quality.size
    if (!(qualityPct > 0 && qualityPct <= 100)) {
      rep.problem(s"quality_pct $qualityPct is outside (0, 100]")
      rep.failed = rep.attempted
    }

    val plain = iters.filterNot(_.traced)
    val trig = plain.flatMap(_.trigMs)
    val videoS = plain.size * setup.ids.size * w.segSec
    rep.e2e ++= Seq(
      Metric("setup_s", Stats.median(passes.map(p => secs(p._1))), "s", "median of 3 set-up passes"),
      Metric("fit_s", Stats.median(passes.filterNot(_._3).map(p => secs(p._2))), "s",
             "the set-up fit of the streaming model"),
      Metric("sweep_s", Stats.median(plain.map(it => secs(it.wallNs))), "s",
             s"one streaming query over ${setup.ids.size} batch files"),
      Metric("batch_p50_ms", Stats.median(trig), "ms", s"triggerExecution; n=${trig.size}"),
      Stats.tailMetric("batch_tail_ms", trig, "ms"),
      Metric("ingest_rt_factor", videoS / plain.map(it => secs(it.wallNs)).sum, "video-s/wall-s"),
    )
    rep.e2eExtra += Metric("quality_pct", qualityPct, "%", "mean reported quality of the loaded batches")
    rep.samples ++= Seq("trigger_ms" -> trig, "add_batch_ms" -> plain.flatMap(_.addMs),
                        "stream_s" -> plain.map(it => secs(it.wallNs)),
                        "setup_s" -> passes.map(p => secs(p._1)))
    rep.info ++= Seq("iterations" -> plain.size.toString,
                     "batches" -> trig.size.toString,
                     "chosen_configs" -> firstChosen.map(setup.model.configs(_).id).mkString(","))

    if (o.trace) {
      val traced = iters.filter(_.traced)
      val tr = setup.tracer.get
      val (synthS, synthSegs) = Offline.synthPass(spark, w, TrainDays + 1, o.seed, tr)
      val switches = firstChosen.sliding(2).count(p => p.size == 2 && p(0) != p(1))
      val rows = setup.ids.map(seg => (VetlPipeline.BaseFps * w.segSec).toInt * (1 + (setup.difficulty(seg) * 12).toInt))
      val overhead = Stats.median(traced.map(it => secs(it.wallNs))) -
                     Stats.median(plain.map(it => secs(it.wallNs)))
      rep.layers ++= Seq(
        Metric("video.synth_s", synthS, "s"),
        Metric("video.segments_per_s", synthSegs / synthS, "1/s"),
      ) ++ Offline.layerMetrics(setup.fit.toSeq, sparkThreads) ++ Seq(
        Metric("planner.replans", 1.0, "count"),
        Metric("planner.replan_ms_p50", setup.planNs / 1e6, "ms"),
        Metric("switcher.probes_per_decision", 0.0, "ratio"),
        Metric("switcher.cloud_share", 0.0, "ratio"),
        Metric("sim.segments", 0.0, "count"),
        Metric("ingest.spark_jobs_per_batch",
               Stats.median(traced.map(_.jobs.toDouble / setup.ids.size)), "count"),
        Metric("ingest.object_rows_per_batch", rows.sum.toDouble / rows.size, "count"),
        Metric("ingest.bytes_written",
               Stats.median(traced.map(it => treeBytes(it.outDir, ".parquet").toDouble)), "bytes"),
        Metric("ingest.config_switches", switches.toDouble, "count"),
        Metric("jvm.gc_s", Stats.median(traced.map(_.gcS)), "s"),
        Metric("spark.tasks", Stats.median(traced.map(_.tasks.toDouble)), "count"),
        Metric("trace.overhead_s", overhead, "s"),
      )
      val add = traced.flatMap(_.addMs)
      val over = traced.flatMap(it => it.trigMs.zip(it.addMs).map { case (t, a) => t - a })
      rep.extra ++= Seq(
        Metric("ingest.add_batch_ms_p50", Stats.median(add), "ms"),
        Metric("ingest.stream_overhead_ms_p50", Stats.median(over), "ms"),
      )
      rep.spans = tr.spans
    }
    // The fitted model and its traces, plus the plan and the input list.
    rep.e2e.insert(3, Metric("heap_retained_mb", retainedHeapMb(() => setup = null), "MB"))
  }
}

object IngestBench {
  /** What set-up leaves for the timed iterations. The fit's traces stay
    * reachable so that `heap_retained_mb` counts the same state as on the
    * sim workloads.
    */
  final case class Setup(model: SkyscraperModel, train: SegmentTrace, test: SegmentTrace,
                         plan: KnobPlan, inDir: File, difficulty: Map[Long, Double],
                         ids: Seq[Long], fitNs: Long, planNs: Long, fit: Option[FitLayers],
                         tracer: Option[Tracer])

  final case class Iter(traced: Boolean, wallNs: Long, trigMs: Seq[Double],
                        addMs: Seq[Double], chosen: Seq[Int], outDir: File,
                        inDir: File, jobs: Int, tasks: Int, gcS: Double, error: Option[String])
}
