package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Spark work over an interval, as seen by [[SparkCounters]]. */
final case class SparkWork(jobs: Long, tasks: Long, jobWallMs: Double, taskRunMs: Double, shuffleBytes: Long) {
  def +(o: SparkWork): SparkWork =
    SparkWork(jobs + o.jobs, tasks + o.tasks, jobWallMs + o.jobWallMs, taskRunMs + o.taskRunMs, shuffleBytes + o.shuffleBytes)
  def -(o: SparkWork): SparkWork =
    SparkWork(jobs - o.jobs, tasks - o.tasks, jobWallMs - o.jobWallMs, taskRunMs - o.taskRunMs, shuffleBytes - o.shuffleBytes)
}

object SparkWork {
  val zero: SparkWork = SparkWork(0, 0, 0.0, 0.0, 0)
}

/** The benchmark's own listener: running totals of jobs, tasks, job wall
  * time, task run time and shuffle bytes written. The engine registers no
  * listener, so every Spark number the benchmark reports comes from here.
  */
final class SparkCounters extends SparkListener {
  private var work = SparkWork.zero
  private val jobStarts = mutable.HashMap.empty[Int, Long]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobStarts(e.jobId) = e.time
    work = work.copy(jobs = work.jobs + 1)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStarts.remove(e.jobId).foreach(t0 => work = work.copy(jobWallMs = work.jobWallMs + (e.time - t0)))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = Option(e.taskMetrics)
    work = work.copy(
      tasks = work.tasks + 1,
      taskRunMs = work.taskRunMs + m.map(_.executorRunTime).getOrElse(0L),
      shuffleBytes = work.shuffleBytes + m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
    )
  }

  def snapshot: SparkWork = synchronized(work)
}

/** Receives the layer spans and counts of one engine call. */
trait Tracer {
  def span[A](layer: String)(body: => A): A
  def count(name: String, v: Double): Unit
}

object Tracer {
  val off: Tracer = new Tracer {
    def span[A](layer: String)(body: => A): A = body
    def count(name: String, v: Double): Unit = ()
  }
}

/** Spans of one traced call, kept in memory: wall ms and Spark work per
  * layer, plus the layer counts. The listener bus is drained at every span
  * boundary so each job lands in the span that ran it; the drain time is
  * kept apart (`drainMs`) so it is not charged to any layer.
  */
final class CallTrace(spark: SparkSession, counters: SparkCounters) extends Tracer {
  val layerMs: mutable.Map[String, Double] = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
  val layerWork: mutable.Map[String, SparkWork] = mutable.LinkedHashMap.empty[String, SparkWork].withDefaultValue(SparkWork.zero)
  val counts: mutable.Map[String, Double] = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
  var drainMs = 0.0

  def drained(): SparkWork = {
    val t0 = System.nanoTime()
    ListenerBusDrain(spark.sparkContext)
    drainMs += (System.nanoTime() - t0) / 1e6
    counters.snapshot
  }

  def span[A](layer: String)(body: => A): A = {
    val w0 = drained()
    val t0 = System.nanoTime()
    val a = body
    layerMs(layer) += (System.nanoTime() - t0) / 1e6
    layerWork(layer) += drained() - w0
    a
  }

  def count(name: String, v: Double): Unit = counts(name) += v
}

/** Driver-JVM counters from the management beans. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  /** Bytes allocated so far by the calling thread (the driver thread). */
  def allocatedBytes: Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  /** Total collection time of all garbage collectors so far. */
  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime max 0L).sum

  def resetHeapPeaks(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peak usage since the last reset. */
  def heapPeakBytes: Long = heapPools.map(_.getPeakUsage.getUsed).sum
}
