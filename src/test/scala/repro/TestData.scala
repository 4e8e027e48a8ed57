package repro

import scala.util.Random

/** Shared serial-side test data generators (no Spark needed). */
object TestData {

  /** Bytes the calling thread allocates while it runs `body`. */
  def allocatedBytes(body: => Unit): Long = {
    val mx = java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val tid = Thread.currentThread().getId
    val before = mx.getThreadAllocatedBytes(tid)
    body
    mx.getThreadAllocatedBytes(tid) - before
  }

  /** Uniform noise points in [0, 100]^d. */
  def uniform(n: Int, d: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    Array.fill(n)(Array.fill(d)(rnd.nextDouble() * 100))
  }

  /** Gaussian blobs around `centers` hotspots — clusterable data where the
    * pruning mechanisms actually fire.
    */
  def blobs(n: Int, d: Int, centers: Int, spread: Double, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    val cs = Array.fill(centers)(Array.fill(d)(rnd.nextDouble() * 100))
    Array.fill(n) {
      val c = cs(rnd.nextInt(centers))
      Array.tabulate(d)(i => c(i) + rnd.nextGaussian() * spread)
    }
  }
}
