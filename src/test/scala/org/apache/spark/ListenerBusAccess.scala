package org.apache.spark

/** Lets a test wait until every posted listener event has been delivered;
  * the listener bus is internal to Spark.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
