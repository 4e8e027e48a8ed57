package repro

import repro.core.Vec
import repro.estimator.{TaskFeatures, TaskSample}
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

  /** Mean of a non-empty set of vectors. */
  def mean(vs: IndexedSeq[Array[Double]]): Array[Double] = {
    val out = new Array[Double](vs.head.length)
    vs.foreach(v => Vec.addInto(out, v))
    Vec.scale(out, 1.0 / vs.length)
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

  /** Synthetic k-means tasks for the runtime estimator: per-iteration
    * runtime follows a known law (≈ c·n·log k /f + first-iteration
    * surcharge) with mild noise, over 3 to q − 1 iterations.
    */
  def taskSamples(count: Int, q: Int, seed: Long): Array[TaskSample] = {
    val rnd = new Random(seed)
    Array.fill(count) {
      val n = 1000 + rnd.nextInt(50000)
      val k = 10 + rnd.nextInt(500)
      val f = 10 + rnd.nextInt(100)
      val leaves = math.max(1, 2 * n / f)
      val features = TaskFeatures(n.toLong, k, 3, f,
        treeDepth = (math.log(leaves.toDouble) / math.log(2)).toInt + 1,
        leafNodes = leaves, internalNodes = leaves - 1, avgLeafFill = f / 2.0)
      val iters = 3 + rnd.nextInt(q - 2)
      val base = 1e-4 * n * math.log(k + 1.0) / math.sqrt(f.toDouble)
      val runtimes = Array.tabulate(iters) { i =>
        val surcharge = if (i == 0) 1.6 else 1.0
        base * surcharge * (1.0 + 0.02 * rnd.nextGaussian())
      }
      TaskSample(features, runtimes)
    }
  }
}
