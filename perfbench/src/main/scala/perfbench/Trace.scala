package perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed interval at a layer boundary. `parent` is the id of the span
  * that was open when this one started (-1 for a root). Times are
  * `System.nanoTime` readings.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder. Spans are kept until the run ends and are then
  * written out in one piece; nothing is flushed while timing.
  */
final class Tracer {
  private val done  = ArrayBuffer[Span]()
  private var stack = List.empty[Int]
  private var next  = 0

  def span[A](name: String)(body: => A): A = {
    val id = next
    next += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      done += Span(id, parent, name, t0, t1)
    }
  }

  def spans: Seq[Span] = done.toSeq.sortBy(_.id)

  /** Durations in seconds of every span called `name`, in start order. */
  def seconds(name: String): Seq[Double] =
    spans.filter(_.name == name).map(_.durNs / 1e9)
}

object Tracer {

  /** A span's self time: its duration minus the part of its interval that
    * its direct children cover. Children may overlap each other (work run
    * on other threads); covered time is the union of their intervals,
    * clipped to the parent.
    */
  def selfNs(all: Seq[Span], s: Span): Long = {
    val kids = all.filter(_.parent == s.id)
      .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
      .filter { case (a, b) => b > a }
      .sortBy(_._1)
    var covered = 0L
    var curA = Long.MinValue
    var curB = Long.MinValue
    for ((a, b) <- kids) {
      if (a > curB) {
        if (curB > curA) covered += curB - curA
        curA = a; curB = b
      } else if (b > curB) curB = b
    }
    if (curB > curA) covered += curB - curA
    s.durNs - covered
  }
}

/** Growable primitive buffer for per-decision latency samples. */
final class LongSamples {
  private var a = new Array[Long](1024)
  private var n = 0
  def +=(x: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = x
    n += 1
  }
  def size: Int = n
  def values: Array[Long] = java.util.Arrays.copyOf(a, n)
}

object Stats {

  def median(xs: Iterable[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.toIndexedSeq.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** The tail a sample size supports: the highest whole percentile with at
    * least `beyond` samples above its nearest-rank position. Returns
    * (percentile, value, n), or None when n ≤ `beyond`.
    */
  def tail(xs: Iterable[Double], beyond: Int = 10): Option[(Int, Double, Int)] = {
    val n = xs.size
    if (n <= beyond) None
    else {
      val p = (100L * (n - beyond) / n).toInt
      val s = xs.toIndexedSeq.sorted
      val rank = math.max(1, math.ceil(p / 100.0 * n).toInt)
      Some((p, s(rank - 1), n))
    }
  }

  /** [[tail]] as a metric noted with its percentile and sample count; the
    * maximum when there are too few samples for a tail.
    */
  def tailMetric(name: String, xs: Iterable[Double], unit: String): Metric = tail(xs) match {
    case Some((p, v, n)) => Metric(name, v, unit, s"p$p, n=$n")
    case None            => Metric(name, xs.max, unit, s"max, n=${xs.size}")
  }
}
