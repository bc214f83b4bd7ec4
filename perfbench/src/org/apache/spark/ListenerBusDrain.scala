package org.apache.spark

/** Blocks until every event already posted to the context's listener bus
  * has been delivered. Spark delivers listener events on its own thread, so
  * a counter read right after an action may miss that action's jobs; the
  * traced benchmark run drains the bus at each span boundary. The bus is
  * package-private to Spark, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
