package org.apache.spark

/** Blocks until the listener bus has delivered every posted event, so
  * counters read right after a job are complete. `listenerBus` is
  * package-private to Spark, hence this one-line shim in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
