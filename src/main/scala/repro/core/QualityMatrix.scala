package repro.core

import org.apache.spark.sql.SparkSession
import repro.workload.{ConfigProfile, Workload}

/** Builds the per-(segment, config) quality, cost and reported-quality
  * matrices of a stream.
  *
  * The segments come from one Spark job over the synthetic stream (no
  * shuffle); the matrices are then filled on the driver from the workload's
  * scalar model ([[Workload.quality]], [[Workload.reported]],
  * [[Workload.costPerSec]]) — the one definition of the law.
  */
object QualityMatrix {

  /** Build the full [[SegmentTrace]] for `days` days of workload `w`,
    * restricted to configuration set `configs` (usually the filtered Pareto
    * set, plus whatever the caller needs).
    */
  def trace(spark: SparkSession, w: Workload, days: Int,
            configs: Vector[ConfigProfile], seed: Long = 7): SegmentTrace = {
    val rows = w.stream(spark, days, seed)
      .select("segId", "day", "regime", "difficulty", "load")
      .collect()
    val n = rows.length
    val k = configs.length
    val day  = Array.ofDim[Int](n)
    val reg  = Array.ofDim[Int](n)
    val diff = Array.ofDim[Double](n)
    val load = Array.ofDim[Double](n)
    val qual = Array.ofDim[Double](n, k)
    val cost = Array.ofDim[Double](n, k)
    val rept = Array.ofDim[Double](n, k)

    for (r <- rows) {
      val segId = r.getLong(0)
      val i = segId.toInt
      day(i)  = r.getInt(1)
      reg(i)  = r.getInt(2)
      diff(i) = r.getDouble(3)
      load(i) = r.getDouble(4)
      var j = 0
      while (j < k) {
        val p = configs(j)
        qual(i)(j) = w.quality(p, segId, diff(i), load(i), reg(i))
        cost(i)(j) = w.costPerSec(p, load(i)) * w.segSec
        rept(i)(j) = w.reported(p, segId, diff(i), load(i), reg(i))
        j += 1
      }
    }
    SegmentTrace(w.segSec, day, reg, diff, load, configs, qual, cost, rept)
  }
}
