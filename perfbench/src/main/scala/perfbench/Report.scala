package perfbench

import scala.collection.mutable.ArrayBuffer

final case class Metric(name: String, value: Double, unit: String, note: String = "")

/** What one workload run hands back to [[Main]]: end-to-end metrics
  * (measured untraced), per-layer metrics (from traced iterations), the
  * op counts and every correctness problem found.
  */
final class Report {
  val e2e     = ArrayBuffer[Metric]()
  /** End-to-end metrics printed and written to the report file only. */
  val e2eExtra = ArrayBuffer[Metric]()
  val layers  = ArrayBuffer[Metric]()
  /** Layer metrics printed and written to the report file only (see README). */
  val extra   = ArrayBuffer[Metric]()
  val info    = ArrayBuffer[(String, String)]()
  /** Raw samples behind a metric, written to the report file. */
  val samples = ArrayBuffer[(String, Iterable[Double])]()
  val problems = ArrayBuffer[String]()
  var attempted = 0L
  var failed    = 0L
  var spans: Seq[Span] = Nil

  def problem(msg: String): Unit = problems += msg
  def check(ok: Boolean, msg: => String): Unit = if (!ok) problem(msg)
}

object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.toString
  }

  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def metrics(ms: Seq[Metric]): String =
    obj(ms.map(m => m.name -> obj(Seq("value" -> num(m.value), "unit" -> str(m.unit)))))
}
