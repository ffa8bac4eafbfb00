package repro.etl

import java.nio.file.Files
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.scalatest.concurrent.TimeLimits.failAfter
import org.scalatest.time.{Seconds, Span}
import repro.{Oracle, SparkSpec}
import repro.core.{Hyper, ForecastSpec, KnobPlan, Skyscraper}
import repro.workload.Covid

/** End-to-end Structured Streaming ingestion over file-dropped segment
  * batches with per-batch knob switching.
  */
class StreamingIngestSpec extends SparkSpec {

  private lazy val hyper = Hyper(
    nCategories = 3,
    forecast = ForecastSpec(inputDays = 0.5, nSplits = 4, horizonDays = 0.5,
                            sampleEveryMin = 30),
    preSampleSize = 400)

  private lazy val (model, _, _) =
    Skyscraper.fitAndTrace(spark, Covid, hyper, trainDays = 1, testDays = 1)

  /** A plan that prefers the top config on hard content and the cheapest on
    * easy content, so adaptation is observable.
    */
  private def mkPlan(): KnobPlan = {
    val nK = model.configs.length
    val alpha = Array.tabulate(model.cats.n, nK) { (c, k) =>
      // Pick the cheapest config within 0.05 of the category's best quality.
      val best = (0 until nK).map(model.cats.center(c, _)).max
      val eligible = (0 until nK).filter(model.cats.center(c, _) >= best - 0.05)
      if (k == eligible.minBy(model.configs(_).unitCost)) 1.0 else 0.0
    }
    KnobPlan(alpha)
  }

  test("streaming job ingests file batches and writes detections") {
    val tmp = Files.createTempDirectory("vetl-stream").toFile
    val inDir = new java.io.File(tmp, "in"); inDir.mkdirs()
    val outDir = new java.io.File(tmp, "out")
    val ckDir = new java.io.File(tmp, "ck")

    // Drop 6 batch files: easy, easy, hard, hard, easy, hard (forced
    // difficulty so adaptation has something to chew on).
    val seg = Covid.stream(spark, 1).limit(40).cache()
    val easy = seg.withColumn("difficulty", lit(0.05))
    val hard = seg.withColumn("difficulty", lit(0.9))
    val batches = Seq(easy, easy, hard, hard, easy, hard)
    batches.zipWithIndex.foreach { case (b, i) =>
      b.coalesce(1).write.json(new java.io.File(inDir, s"batch$i").getAbsolutePath)
    }
    // File source needs files directly under the glob; move part files up.
    val parts = inDir.listFiles.filter(_.isDirectory).flatMap { d =>
      d.listFiles.filter(_.getName.endsWith(".json"))
    }
    parts.zipWithIndex.foreach { case (f, i) =>
      java.nio.file.Files.move(f.toPath, new java.io.File(inDir, s"b$i.json").toPath)
    }
    inDir.listFiles.filter(_.isDirectory).foreach(d => {
      d.listFiles.foreach(_.delete()); d.delete()
    })

    val ingest = new StreamingIngest(model, mkPlan())
    val q = ingest.start(spark, inDir.getAbsolutePath, outDir.getAbsolutePath,
                         ckDir.getAbsolutePath)
    q.awaitTermination(120000)

    assert(ingest.chosenLog.nonEmpty, "at least one batch processed")
    assert(ingest.chosenLog.size == 6, s"chosen=${ingest.chosenLog}")
    val out = spark.read.parquet(outDir.getAbsolutePath)
    assert(out.count() > 0)
    assert(out.columns.toSet == Set("segId", "frameNo", "objId", "cfgId"))

    // Adaptation: after observing hard batches the switcher must not keep
    // the configuration it used on the very first easy batch throughout.
    assert(ingest.chosenLog.distinct.size >= 2, s"chosen=${ingest.chosenLog}")
  }

  /** The cheapest config, and a plan that pins it in every category, so
    * every batch runs it whatever category the switcher holds.
    */
  private lazy val cheapest = model.configs.indices.minBy(model.configs(_).unitCost)
  private lazy val pinnedPlan =
    KnobPlan(Array.tabulate(model.cats.n, model.configs.length) { (_, k) =>
      if (k == cheapest) 1.0 else 0.0
    })

  /** 30 COVID segments with their difficulty forced to `d`. */
  private lazy val seg30 = Covid.stream(spark, 1).limit(30).cache()
  private def batchAt(d: Double): DataFrame = seg30.withColumn("difficulty", lit(d))

  test("reported quality feeds category switching") {
    val ingest = new StreamingIngest(model, pinnedPlan)
    val tmp = Files.createTempDirectory("vetl-batch").toFile
    val p = model.configs(cheapest)
    val every = StreamingIngest.sampleEveryOf(p)
    val framesSampled = ((VetlPipeline.BaseFps * Covid.segSec).toInt + every - 1) / every

    val cats = Seq(0.95, 0.02).zipWithIndex.map { case (d, i) =>
      val batch = batchAt(d)
      val out = new java.io.File(tmp, s"out$i").getAbsolutePath
      ingest.processBatch(batch, out)
      assert(ingest.chosenLog == Seq.fill(i + 1)(cheapest), s"chosen=${ingest.chosenLog}")

      // The quality the switcher must have seen, from the loaded rows alone:
      // detections ÷ sampled object-frames, with 1 + ⌊12·d⌋ objects a frame.
      val loaded = spark.read.parquet(out)
      Oracle.assertEquivalent(
        loaded.groupBy("segId").agg(count(lit(1)) as "detections"),
        VetlPipeline.transformCountsSql(p, every),
        "objects" -> VetlPipeline.objects(Covid, batch))
      val objects = batch.select("difficulty").collect().map(r => 1 + (r.getDouble(0) * 12).toInt).sum
      val q = loaded.count().toDouble / (framesSampled.toLong * objects)
      assert(ingest.switcher.currentCategory == model.cats.classifyOnline(cheapest, q),
             s"d=$d q=$q category=${ingest.switcher.currentCategory}")
      ingest.switcher.currentCategory
    }
    val Seq(catHard, catEasy) = cats
    assert(catHard != catEasy, s"hard=$catHard easy=$catEasy")
  }

  test("an empty batch leaves the ingest state unchanged") {
    val ingest = new StreamingIngest(model, pinnedPlan)
    val out = new java.io.File(Files.createTempDirectory("vetl-empty").toFile, "out").getAbsolutePath
    ingest.processBatch(batchAt(0.95), out)
    val (chosen, category, rows) =
      (ingest.chosenLog.toSeq, ingest.switcher.currentCategory, spark.read.parquet(out).count())
    val empties = Seq(
      spark.createDataFrame(spark.sparkContext.emptyRDD[Row], ingest.schema),
      spark.createDataFrame(java.util.List.of[Row](), ingest.schema))
    for (empty <- empties) {
      failAfter(Span(60, Seconds)) { ingest.processBatch(empty, out) }
      assert(ingest.chosenLog.toSeq == chosen)
      assert(ingest.switcher.currentCategory == category)
      assert(spark.read.parquet(out).count() == rows)
    }
  }
}
