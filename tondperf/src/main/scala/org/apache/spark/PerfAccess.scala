package org.apache.spark

/** The one Spark-internal call the benchmark needs: listener events are
  * delivered asynchronously, so per-call job/stage/task counts are read only
  * after the bus has delivered everything posted so far. */
object PerfAccess {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
