package repro.etl

import org.apache.spark.sql.{Column, DataFrame, Observation}
import org.apache.spark.sql.functions._
import repro.util.DetHash
import repro.workload.{ConfigProfile, Workload}

/** The V-ETL Transform and Load steps as Spark DataFrame transformations.
  *
  * Extract: the synthetic stream substrate emits an object-granularity
  * DataFrame (each row = one visible object in one frame). Transform: a knob
  * configuration samples frames and "detects" objects with a
  * robustness/difficulty-dependent probability — the deterministic-hash twin
  * of the CV model the paper runs. Load: detections aggregate into the
  * application-specific query format (e.g. per-segment counts) for a
  * relational engine. The Transform counts its reported quality in the same
  * pass ([[transformObserved]]).
  *
  * Every step is expressible in portable SQL, so results are verified
  * against DuckDB via `repro.Oracle`.
  */
object VetlPipeline {

  /** Reference capture frame rate (paper streams are 30 fps). */
  val BaseFps = 30

  /** Expand segments into per-frame, per-object rows.
    *
    * Output: (segId, frameNo ∈ [0, 30·segSec), objId, difficulty).
    * Object count per frame rises with difficulty (crowded ⇒ hard).
    */
  def objects(w: Workload, segments: DataFrame): DataFrame = {
    val framesPerSeg = (BaseFps * w.segSec).toInt
    val nObjects = (lit(1) + (col("difficulty") * 12).cast("int")) as "nObjects"
    segments
      .select(col("segId"), col("difficulty"), nObjects)
      .withColumn("frameNo", explode(sequence(lit(0), lit(framesPerSeg - 1))))
      .withColumn("objId", explode(sequence(lit(0), col("nObjects") - 1)))
      .select("segId", "frameNo", "objId", "difficulty")
  }

  /** Probability that config `p` detects an object at the given difficulty —
    * the same robustness law as the segment-level quality model.
    */
  def detectProbCol(p: ConfigProfile, difficulty: Column) =
    greatest(lit(0.05), least(lit(1.0), lit(1.0) - lit(1.0 - p.rho) * difficulty))

  /** The Transform's predicate: the frame is sampled and the hash detects. */
  private def sampled(sampleEvery: Int): Column = pmod(col("frameNo"), lit(sampleEvery)) === 0
  private def detected(p: ConfigProfile, sampleEvery: Int): Column =
    sampled(sampleEvery) &&
      DetHash.uniformCol(col("segId"), col("objId") + lit(7L), col("frameNo")) <
        detectProbCol(p, col("difficulty"))

  /** Transform: sample frames per the config's frame-rate knob, then detect
    * objects via the deterministic hash.
    *
    * @param sampleEvery process every n-th frame (30/fps for the workloads)
    */
  def transform(objectsDf: DataFrame, p: ConfigProfile, sampleEvery: Int): DataFrame =
    objectsDf.where(detected(p, sampleEvery)).select(col("segId"), col("frameNo"), col("objId"))

  /** [[transform]], with its reported quality counted in the same pass —
    * the user-defined quality metric the paper's API extracts "anyways"
    * while running the job (§4.2) — by the Transform's own predicate, so the
    * quality and the loaded rows cannot drift apart. The quality is
    * Σ detections ÷ Σ sampled object-frames over all segments (for several
    * segments a pooled ratio, not the mean of per-segment ratios), or None
    * when nothing was sampled (empty input). Read it only after an action on
    * the detections (the Load's write) has run; until then it blocks.
    */
  def transformObserved(objectsDf: DataFrame, p: ConfigProfile,
                        sampleEvery: Int): (DataFrame, () => Option[Double]) = {
    val seen = Observation()
    val counted = objectsDf.observe(seen,
      count_if(sampled(sampleEvery)) as "sampled",
      count_if(detected(p, sampleEvery)) as "detections")
    val quality = () => {
      val m = seen.get
      val n = m("sampled").asInstanceOf[Long]
      if (n == 0) None else Some(m("detections").asInstanceOf[Long].toDouble / n)
    }
    (transform(counted, p, sampleEvery), quality)
  }

  /** SQL twin of [[transform]]+[[loadCounts]] for the DuckDB oracle: count
    * detections per segment, over the named `objects` table.
    */
  def transformCountsSql(p: ConfigProfile, sampleEvery: Int): String = {
    val u = DetHash.uniformSql("CAST(segId AS BIGINT)", "CAST(objId AS BIGINT) + 7",
                               "CAST(frameNo AS BIGINT)")
    val prob = s"GREATEST(0.05, LEAST(1.0, 1.0 - ${1.0 - p.rho} * CAST(difficulty AS DOUBLE)))"
    s"""SELECT CAST(segId AS BIGINT) AS segId, COUNT(*) AS detections
       |FROM objects
       |WHERE CAST(frameNo AS BIGINT) % $sampleEvery = 0 AND $u < $prob
       |GROUP BY CAST(segId AS BIGINT)""".stripMargin
  }

  /** Load: per-segment detection counts — the "easy to query" intermediate
    * format (a Detections table a warehouse would ingest).
    */
  def loadCounts(detections: DataFrame): DataFrame =
    detections.groupBy("segId").agg(count(lit(1)) as "detections")

  /** Example downstream analytics query on the loaded format (the paper's
    * EV-count style query): detected object-frames per segment bucket.
    */
  def countsPerBucket(detections: DataFrame, segsPerBucket: Int): DataFrame =
    detections
      .groupBy(floor(col("segId") / segsPerBucket).cast("long") as "bucket")
      .agg(count(lit(1)) as "detections",
           countDistinct(col("objId")) as "objects")

  /** SQL twin of [[countsPerBucket]] over a named `detections` table. */
  def countsPerBucketSql(segsPerBucket: Int): String =
    s"""SELECT CAST(FLOOR(CAST(segId AS BIGINT) / $segsPerBucket) AS BIGINT) AS bucket,
       |       COUNT(*) AS detections,
       |       COUNT(DISTINCT objId) AS objects
       |FROM detections
       |GROUP BY 1""".stripMargin
}
