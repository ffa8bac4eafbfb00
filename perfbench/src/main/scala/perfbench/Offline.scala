package perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.workload.Workload

/** Per-layer numbers of one traced offline fit. */
final case class FitLayers(presampleS: Double, paretoS: Double, configsKept: Int,
                           qmS: Double, qmCells: Long, qmJobs: Int, qmTasks: Int,
                           qmRunMs: Long, qmShuffleBytes: Long,
                           catFitS: Double, catAssignS: Double, meanByCatS: Double,
                           windowsS: Double, windows: Int, forecastFitS: Double) {
  /** `Forecaster.fit` minus the window build it does first. */
  def forecastTrainS: Double = forecastFitS - windowsS
  def qmCoreBusyShare(cores: Int): Double = qmRunMs / 1e3 / (qmS * cores)
}

object Offline {

  /** [[Skyscraper.fitAndTrace]] re-composed from its public steps, in the
    * same order and with the same arguments, with a span around each step.
    * The result must equal the untraced call's; the run checks that.
    *
    * `Forecaster.windows` is timed by calling it on its own before
    * `Forecaster.fit` (which builds the windows again), so the MLP training
    * time is `forecast.fit` minus `forecast.windows`.
    */
  def tracedFit(spark: SparkSession, w: Workload, h: Hyper, trainDays: Int, testDays: Int,
                tr: Tracer, counters: SparkCounters, tag: String)
      : (SkyscraperModel, SegmentTrace, SegmentTrace, FitLayers) = {
    val sc = spark.sparkContext
    val qmGroup = s"$tag.qm"
    val (model, train, test, cells, nWindows) = tr.span("fit") {
      val pre = tr.span("presample") {
        SparkCounters.group(sc, s"$tag.presample") {
          Skyscraper.preSample(spark, w, trainDays, h.preSampleSize, h.seed)
        }
      }
      val k = tr.span("pareto") { Pareto.filterConfigs(w, pre, h.nSearch, h.maxK) }
      val full = tr.span("qm") {
        SparkCounters.group(sc, qmGroup) {
          QualityMatrix.trace(spark, w, trainDays + testDays, k, h.seed)
        }
      }
      val split = full.dayStart(trainDays)
      val train = full.slice(0, split)
      val test  = full.slice(split, full.nSegments)

      val cats = tr.span("categories.fit") {
        ContentCategories.fit(train, h.nCategories, h.categorySampleFrac, h.seed)
      }
      val trainCats = tr.span("categories.assign") { ContentCategories.assignOnline(cats, train) }
      val (costHat, qualHat) = tr.span("fit.mean_by_category") {
        (Skyscraper.meanByCategory(train.cost, trainCats, cats.n, train),
         Skyscraper.meanByCategory(train.qual, trainCats, cats.n, train))
      }
      val forecaster = new Forecaster(h.forecast, cats.n, train.segSec, h.seed)
      val nWindows = tr.span("forecast.windows") { forecaster.windows(trainCats).size }
      tr.span("forecast.fit") { forecaster.fit(trainCats) }
      (SkyscraperModel(w, k, cats, forecaster, trainCats, costHat, qualHat, h), train, test,
       full.nSegments.toLong * k.size, nWindows)
    }

    counters.settle()
    val (jobs, tasks, runMs, shuffle) = counters.ofGroup(qmGroup)
    def last(name: String) = tr.seconds(name).last
    val layers = FitLayers(last("presample"), last("pareto"), model.configs.size,
      last("qm"), cells, jobs, tasks, runMs, shuffle,
      last("categories.fit"), last("categories.assign"), last("fit.mean_by_category"),
      last("forecast.windows"), nWindows, last("forecast.fit"))
    (model, train, test, layers)
  }

  /** Offline per-layer metrics, medians over the traced fits given. */
  def layerMetrics(fits: Iterable[FitLayers], cores: Int): Seq[Metric] = {
    def med(f: FitLayers => Double) = Stats.median(fits.map(f))
    Seq(
      Metric("presample.s", med(_.presampleS), "s"),
      Metric("pareto.s", med(_.paretoS), "s"),
      Metric("pareto.configs_kept", med(_.configsKept.toDouble), "count"),
      Metric("qm.s", med(_.qmS), "s"),
      Metric("qm.cells_per_s", med(f => f.qmCells / f.qmS), "1/s"),
      Metric("qm.shuffle_write_bytes", med(_.qmShuffleBytes.toDouble), "bytes"),
      Metric("qm.spark_jobs", med(_.qmJobs.toDouble), "count"),
      Metric("qm.spark_tasks", med(_.qmTasks.toDouble), "count"),
      Metric("qm.core_busy_share", med(_.qmCoreBusyShare(cores)), "ratio"),
      Metric("categories.fit_s", med(_.catFitS), "s"),
      Metric("categories.assign_s", med(_.catAssignS), "s"),
      Metric("fit.mean_by_category_s", med(_.meanByCatS), "s"),
      Metric("forecast.windows_s", med(_.windowsS), "s"),
      Metric("forecast.windows", med(_.windows.toDouble), "count"),
      Metric("forecast.train_s", med(_.forecastTrainS), "s"),
    )
  }

  /** Same model? Compares everything the online phase reads. */
  def sameModel(a: SkyscraperModel, b: SkyscraperModel): Boolean = {
    def eq2(x: Array[Array[Double]], y: Array[Array[Double]]) =
      x.length == y.length && x.indices.forall(i => java.util.Arrays.equals(x(i), y(i)))
    a.configs.map(_.id) == b.configs.map(_.id) &&
      java.util.Arrays.equals(a.trainCats, b.trainCats) &&
      eq2(a.costHat, b.costHat) && eq2(a.qualHat, b.qualHat) &&
      eq2(a.cats.model.centers, b.cats.model.centers) &&
      java.util.Arrays.equals(
        a.forecaster.predict(a.trainCats, a.trainCats.length),
        b.forecaster.predict(b.trainCats, b.trainCats.length))
  }

  /** The `video.synth` layer: generate the stream and force every column
    * through Spark's `noop` sink so column pruning cannot skip the work.
    */
  def synthPass(spark: SparkSession, w: Workload, days: Int, seed: Long, tr: Tracer): (Double, Long) = {
    val df = w.stream(spark, days, seed)
    tr.span("video.synth") { df.write.format("noop").mode("overwrite").save() }
    (tr.seconds("video.synth").last, w.streamSpec(days, seed).nSegments)
  }
}
