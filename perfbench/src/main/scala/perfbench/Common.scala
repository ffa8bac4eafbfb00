package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.core.SegmentTrace

final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                      outDir: File, gitSha: String)

object Opts {
  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt,
         need("trace") == "1", new File(need("out")), m.getOrElse("git-sha", "unknown"))
  }
}

object Common {

  def now(): Long = System.nanoTime()
  def secs(ns: Long): Double = ns / 1e9

  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, System.nanoTime() - t0)
  }

  /** Spark threads: never more than the machine has, and at most 2, which
    * leaves cores to the driver's control loop, the JIT and the collector
    * and keeps run-to-run spread low on a 4-core host.
    */
  val sparkThreads: Int = math.max(1, math.min(2, Runtime.getRuntime.availableProcessors()))

  def session(scratch: File): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$sparkThreads]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(scratch, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(scratch, "warehouse").getAbsolutePath)
      .config("spark.sql.streaming.numRecentProgressUpdates", "1000")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Total GC time of the JVM so far, in seconds. */
  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum / 1e3

  /** Heap in use after full collections, once it stops changing: Spark
    * frees unpersisted blocks and dead broadcasts on its own threads after
    * a collection finds them unreachable.
    */
  private def usedAfterGc(): Long = {
    def used() = { System.gc(); ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed }
    var prev = used()
    var i = 0
    var settled = false
    while (!settled && i < 20) {
      Thread.sleep(100)
      val u = used()
      settled = math.abs(u - prev) < 64 * 1024
      prev = u
      i += 1
    }
    prev
  }

  /** Driver heap retained by some state, in MB: heap in use after full
    * collections while the state is reachable, minus the same once
    * `release` has dropped the last reference to it.
    */
  def retainedHeapMb(release: () => Unit): Double = {
    val withState = usedAfterGc()
    release()
    (withState - usedAfterGc()) / (1024.0 * 1024.0)
  }

  /** Trace-matrix invariants that hold for every seed: n × |K| matrices of
    * finite numbers, reported quality in [0, 1]. Returns the problems found.
    */
  def traceProblems(label: String, t: SegmentTrace): Seq[String] = {
    val n = t.nSegments
    val k = t.nConfigs
    val p = scala.collection.mutable.ArrayBuffer[String]()
    for ((name, m) <- Seq("qual" -> t.qual, "cost" -> t.cost, "report" -> t.report)) {
      if (m.length != n || m.exists(_.length != k))
        p += s"$label.$name is not $n x $k"
      else if (m.exists(_.exists(x => x.isNaN || x.isInfinite)))
        p += s"$label.$name has non-finite cells"
    }
    if (t.report.exists(_.exists(x => x < 0.0 || x > 1.0)))
      p += s"$label.report leaves [0, 1]"
    if (Seq(t.day.length, t.regime.length, t.difficulty.length, t.load.length).exists(_ != n))
      p += s"$label per-segment columns disagree on n"
    p.toSeq
  }

  def deleteTree(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }

  def treeBytes(f: File, suffix: String): Long =
    if (f.isDirectory) Option(f.listFiles).map(_.map(treeBytes(_, suffix)).sum).getOrElse(0L)
    else if (f.getName.endsWith(suffix)) f.length() else 0L

  /** Run environment, recorded with every output. */
  def env(spark: SparkSession, o: Opts): Seq[(String, String)] = {
    val xmx = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .find(_.startsWith("-Xmx")).getOrElse("(default)")
    Seq(
      "git_sha" -> o.gitSha,
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "spark_master" -> spark.sparkContext.master,
      "spark_default_parallelism" -> spark.sparkContext.defaultParallelism.toString,
      "driver_xmx" -> xmx,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "spark_version" -> spark.version,
      "workload" -> o.workload,
      "seed" -> o.seed.toString,
      "seconds" -> o.seconds.toString,
      "trace" -> (if (o.trace) "1" else "0"),
    )
  }
}
