package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable

/** Job, stage and task numbers of the calls the benchmark makes, grouped by
  * a phase label. The benchmark sets the label as a local property before a
  * call; the listener reads it from each job's properties.
  */
final class SparkCollector extends SparkListener {
  import SparkCollector._

  private val jobPhase = mutable.Map.empty[Int, String]
  private val stagePhase = mutable.Map.empty[Int, String]
  private val jobStart = mutable.Map.empty[Int, Long]
  private val totals = mutable.Map.empty[String, Totals]
  private val endedPhases = mutable.Set.empty[String]

  private def of(phase: String): Totals = totals.getOrElseUpdate(phase, new Totals)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val phase = Option(e.properties).flatMap(p => Option(p.getProperty(PhaseKey))).getOrElse("")
    jobPhase(e.jobId) = phase
    jobStart(e.jobId) = e.time
    e.stageIds.foreach(stagePhase(_) = phase)
    of(phase).jobs += 1
    of(phase).stages += e.stageIds.length
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    val phase = jobPhase.getOrElse(e.jobId, "")
    of(phase).jobMs += e.time - jobStart.getOrElse(e.jobId, e.time)
    endedPhases += phase
    notifyAll()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val t = of(stagePhase.getOrElse(e.stageId, ""))
    t.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      t.runMs += m.executorRunTime
      t.deserMs += m.executorDeserializeTime
      t.gcMs += m.jvmGCTime
      t.resultBytes += m.resultSize
      t.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Forget the totals gathered so far; call after [[drain]]. */
  def reset(): Unit = synchronized(totals.clear())

  /** Totals of one phase; empty if it ran no job. */
  def totalsOf(phase: String): Totals = synchronized(totals.getOrElse(phase, new Totals))

  /** Block until every event posted before this call has been delivered:
    * run a one-task job under a fresh label and wait for its end, which the
    * listener bus delivers after all earlier events.
    */
  def drain(sc: SparkContext): Unit = {
    val label = s"drain-${System.nanoTime()}"
    withPhase(sc, label)(sc.parallelize(Seq(1), 1).count())
    synchronized {
      val deadline = System.currentTimeMillis() + 60000
      while (!endedPhases.contains(label)) {
        val left = deadline - System.currentTimeMillis()
        require(left > 0, "Spark listener events were not delivered within 60 s")
        wait(left)
      }
    }
  }
}

object SparkCollector {
  val PhaseKey = "perfbench.phase"

  final class Totals {
    var jobs = 0L; var stages = 0L; var jobMs = 0L; var tasks = 0L
    var runMs = 0L; var deserMs = 0L; var gcMs = 0L
    var resultBytes = 0L; var shuffleBytes = 0L

    def +(o: Totals): Totals = {
      val t = new Totals
      t.jobs = jobs + o.jobs; t.stages = stages + o.stages; t.jobMs = jobMs + o.jobMs
      t.tasks = tasks + o.tasks; t.runMs = runMs + o.runMs; t.deserMs = deserMs + o.deserMs
      t.gcMs = gcMs + o.gcMs; t.resultBytes = resultBytes + o.resultBytes
      t.shuffleBytes = shuffleBytes + o.shuffleBytes
      t
    }
  }

  /** Run `body` with the phase label set for jobs it submits. */
  def withPhase[T](sc: SparkContext, phase: String)(body: => T): T = {
    val prev = sc.getLocalProperty(PhaseKey)
    sc.setLocalProperty(PhaseKey, phase)
    try body finally sc.setLocalProperty(PhaseKey, prev)
  }
}
