package repro.baselines

import repro.core._

/** Lloyd's algorithm [39]: the exact reference every accelerator must
  * match. n·k distances per iteration, no bookkeeping beyond the
  * assignment array.
  */
final class Lloyd extends KMeansAlgo {
  override def name: String = "Lloyd"

  override def extraMemoryFloats(n: Long, k: Long, d: Long): Long = 0L

  override protected def start(
      data: Array[Array[Double]],
      k: Int,
      init: Array[Array[Double]],
      counter: DistanceCounter,
  ): KMeansAlgo.Run = new KMeansAlgo.PointRun(data) {
    override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
      var i = 0
      while (i < data.length) { a(i) = Vec.nearest(data(i), centroids); counter.count += k; i += 1 }
      0L
    }
  }
}
