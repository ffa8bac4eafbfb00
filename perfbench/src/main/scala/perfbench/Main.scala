package perfbench

import java.io.File
import java.nio.file.Files

/** Benchmark entry point.
  *
  * {{{
  *   Main --workload covid|mosei-long|ingest --seed N --seconds S --trace 0|1
  *        --out DIR [--git-sha SHA]
  * }}}
  *
  * Prints the environment and every metric by name and unit, writes a
  * report (and, when traced, every span) to DIR, and ends its standard
  * output with one JSON line: correct, attempted, failed and the metrics —
  * the end-to-end ones untraced, the per-layer ones traced.
  */
object Main {
  val Workloads = Seq("covid", "mosei-long", "ingest")

  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args)
    require(Workloads.contains(o.workload), s"unknown workload ${o.workload}; one of ${Workloads.mkString(", ")}")
    val runDir = new File(o.outDir, s"${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}")
    Common.deleteTree(runDir)
    runDir.mkdirs()

    val (spark, sessionNs) = Common.timed(Common.session(new File(o.outDir, "tmp")))
    val rep = new Report
    try {
      o.workload match {
        case "covid"      => new SimBench(SimBench.covid, spark, o, sessionNs).run(rep)
        case "mosei-long" => new SimBench(SimBench.moseiLong, spark, o, sessionNs).run(rep)
        case "ingest"     => new IngestBench(spark, o, sessionNs, runDir).run(rep)
      }
      val env = Common.env(spark, o) ++ rep.info
      val metrics = if (o.trace) rep.layers.toSeq else rep.e2e.toSeq
      val correct = rep.problems.isEmpty && rep.failed == 0 && rep.attempted > 0

      println(s"perfbench ${o.workload}: " + env.map { case (k, v) => s"$k=$v" }.mkString(" "))
      def show(title: String, ms: Seq[Metric]): Unit = if (ms.nonEmpty) {
        println(title)
        ms.foreach(m => println(f"  ${m.name}%-32s ${m.value}%14.6f ${m.unit}%-15s ${m.note}"))
      }
      show("end-to-end (untraced iterations):", rep.e2e.toSeq)
      show("end-to-end, fixed per seed (report file, not the JSON line):", rep.e2eExtra.toSeq)
      show("per-layer (traced iterations):", rep.layers.toSeq)
      show("per-layer, this workload only (report file, not the JSON line):", rep.extra.toSeq)
      if (rep.spans.nonEmpty) {
        println("span self time (s), last traced pass:")
        rep.spans.groupBy(_.name).toSeq
          .map { case (n, ss) => n -> ss.map(Tracer.selfNs(rep.spans, _)).sum / 1e9 }
          .sortBy(-_._2).foreach { case (n, s) => println(f"  $n%-32s $s%10.4f") }
      }
      println(s"ops: attempted=${rep.attempted} failed=${rep.failed}")
      rep.problems.foreach(p => println(s"PROBLEM: $p"))

      writeReport(new File(o.outDir, s"${runDir.getName}.json"), env, rep, correct)
      println(Json.obj(Seq(
        "correct" -> correct.toString,
        "attempted" -> rep.attempted.toString,
        "failed" -> rep.failed.toString,
        "metrics" -> Json.metrics(metrics))))
    } finally {
      spark.stop()
      Common.deleteTree(runDir)
    }
  }

  private def writeReport(f: File, env: Seq[(String, String)], rep: Report, correct: Boolean): Unit = {
    def ms(xs: Seq[Metric]) = xs.map(m => Json.obj(Seq("name" -> Json.str(m.name),
      "value" -> Json.num(m.value), "unit" -> Json.str(m.unit), "note" -> Json.str(m.note))))
      .mkString("[", ", ", "]")
    val spans = rep.spans.map(s => Json.obj(Seq("id" -> s.id.toString, "parent" -> s.parent.toString,
      "name" -> Json.str(s.name), "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString,
      "self_ns" -> Tracer.selfNs(rep.spans, s).toString))).mkString("[", ",\n  ", "]")
    Files.writeString(f.toPath, Json.obj(Seq(
      "env" -> Json.obj(env.map { case (k, v) => k -> Json.str(v) }),
      "correct" -> correct.toString,
      "attempted" -> rep.attempted.toString,
      "failed" -> rep.failed.toString,
      "problems" -> rep.problems.map(Json.str).mkString("[", ", ", "]"),
      "end_to_end" -> ms(rep.e2e.toSeq ++ rep.e2eExtra.toSeq),
      "per_layer" -> ms(rep.layers.toSeq ++ rep.extra.toSeq),
      "samples" -> Json.obj(rep.samples.toSeq.map { case (k, xs) => k -> xs.map(Json.num).mkString("[", ", ", "]") }),
      "spans" -> spans)) + "\n")
  }
}
