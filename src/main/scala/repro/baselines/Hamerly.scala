package repro.baselines

import repro.core._

/** Hamerly's algorithm [26]: one upper bound u(i) to the assigned centroid
  * and one lower bound l(i) to the second-closest, plus s(j) = half the
  * distance from c_j to its nearest other centroid. Memory 2n + k.
  */
final class Hamerly extends KMeansAlgo {
  override def name: String = "Hamerly"

  override def extraMemoryFloats(n: Long, k: Long, d: Long): Long = 2 * n + k

  override protected def start(
      data: Array[Array[Double]],
      k: Int,
      init: Array[Array[Double]],
      counter: DistanceCounter,
  ): KMeansAlgo.Run = new KMeansAlgo.PointRun(data) {
    private val n = data.length
    private val u = new Array[Double](n)
    private val l = new Array[Double](n)
    private val s = new Array[Double](k)

    override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
      /** Full scan of point i: set a, u (closest) and l (second closest). */
      def fullScan(i: Int): Unit = {
        val b = counter.nearest2(data(i), centroids)
        a(i) = b.i1; u(i) = b.d1; l(i) = b.d2
      }

      // Loosen the bounds by the last refine's drifts.
      if (it > 0) {
        val maxDrift = KMeans.maxDrift(drifts)
        var i = 0
        while (i < n) { u(i) += drifts(a(i)); l(i) -= maxDrift; i += 1 }
      }

      // s(j): half the distance to the nearest other centroid.
      var j = 0
      while (j < k) { s(j) = counter.nearest2(centroids(j), centroids, skip = j).d2 / 2; j += 1 }

      var i = 0
      while (i < n) {
        if (it == 0) fullScan(i)
        else {
          val m = math.max(s(a(i)), l(i))
          if (u(i) > m) {
            u(i) = counter.dist(data(i), centroids(a(i))) // tighten
            if (u(i) > m) fullScan(i)
          }
        }
        i += 1
      }
      0L
    }
  }
}
