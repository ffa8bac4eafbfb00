package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable.ArrayBuffer

/** Spark work seen through the public listener API. Jobs carry the job
  * group that was set on the calling thread (see [[SparkCounters.group]]),
  * so a layer's jobs and tasks can be told apart without timing windows.
  */
final class SparkCounters extends SparkListener {
  import SparkCounters.{Job, Task}

  private val jobs  = ArrayBuffer[Job]()
  private val tasks = ArrayBuffer[Task]()
  private var jobEnds = 0
  private var taskStarts = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    jobs += Job(g.getOrElse(""), e.time, e.stageIds)
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobEnds += 1 }
  override def onTaskStart(e: SparkListenerTaskStart): Unit = synchronized { taskStarts += 1 }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    tasks += Task(e.stageId,
                  if (m == null) 0L else m.executorRunTime,
                  if (m == null) 0L else m.shuffleWriteMetrics.bytesWritten)
  }

  /** Wait until every started job and task has reported its end (listener
    * events arrive asynchronously), for at most `timeoutMs`.
    */
  def settle(timeoutMs: Long = 10000): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    var last = -1
    var stableSince = System.currentTimeMillis()
    while (System.currentTimeMillis() < deadline) {
      val (seen, quiet) = synchronized {
        (jobs.size + jobEnds + taskStarts + tasks.size,
         jobEnds == jobs.size && taskStarts == tasks.size)
      }
      if (seen != last) { last = seen; stableSince = System.currentTimeMillis() }
      else if (quiet && System.currentTimeMillis() - stableSince >= 200) return
      Thread.sleep(20)
    }
  }

  /** (jobs, tasks, executor run ms, shuffle bytes written) of a job group. */
  def ofGroup(group: String): (Int, Int, Long, Long) = synchronized {
    val js = jobs.filter(_.group == group)
    val stages = js.flatMap(_.stages).toSet
    val ts = tasks.filter(t => stages.contains(t.stageId))
    (js.size, ts.size, ts.map(_.runMs).sum, ts.map(_.shuffleWrite).sum)
  }

  /** Jobs submitted within [fromMs, toMs] (epoch ms), any group. */
  def jobsBetween(fromMs: Long, toMs: Long): Int = synchronized {
    jobs.count(j => j.timeMs >= fromMs && j.timeMs <= toMs)
  }

  def taskCount: Int = synchronized(tasks.size)
}

object SparkCounters {
  final case class Job(group: String, timeMs: Long, stages: Seq[Int])
  final case class Task(stageId: Int, runMs: Long, shuffleWrite: Long)

  /** Run `body` with Spark jobs of this thread labelled `group`. */
  def group[A](sc: SparkContext, name: String)(body: => A): A = {
    sc.setJobGroup(name, name)
    try body finally sc.clearJobGroup()
  }
}
