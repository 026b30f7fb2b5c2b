package imbench

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spark work counted from outside the program: a listener the benchmark
  * registers on the session's context.
  */
final class SparkCounters extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  val taskRunMs = new AtomicLong
  val shuffleWriteBytes = new AtomicLong
  val resultBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      taskRunMs.addAndGet(m.executorRunTime)
      shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      resultBytes.addAndGet(m.resultSize)
    }
  }

  /** (jobs, tasks, task run ms, shuffle write bytes, result bytes) once
    * every event posted so far has been delivered.
    */
  def snapshot(sc: SparkContext): Array[Long] = {
    org.apache.spark.ListenerBusDrain(sc)
    Array(jobs.get, tasks.get, taskRunMs.get, shuffleWriteBytes.get, resultBytes.get)
  }
}
