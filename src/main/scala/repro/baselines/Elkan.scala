package repro.baselines

import repro.core._

/** Elkan's algorithm [21] (scikit-learn's default): n×k lower bounds
  * l(i,j), an upper bound u(i) per point, and the k×k inter-centroid
  * distances. Exact, fast at small k, memory-prohibitive at large k
  * (the paper's N/A cells).
  */
final class Elkan extends KMeansAlgo {
  override def name: String = "Elkan"

  override def extraMemoryFloats(n: Long, k: Long, d: Long): Long = n * k + n + k * k

  override protected def start(
      data: Array[Array[Double]],
      k: Int,
      init: Array[Array[Double]],
      counter: DistanceCounter,
  ): KMeansAlgo.Run = new KMeansAlgo.PointRun(data) {
    private val n = data.length
    private val u = new Array[Double](n)
    private val l = Array.ofDim[Double](n, k)
    private val cc = Array.ofDim[Double](k, k) // inter-centroid distances
    private val s = new Array[Double](k)

    override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
      // Loosen the bounds by the last refine's drifts.
      if (it > 0) {
        var i = 0
        while (i < n) {
          u(i) += drifts(a(i))
          var c = 0
          while (c < k) { l(i)(c) = math.max(0.0, l(i)(c) - drifts(c)); c += 1 }
          i += 1
        }
      }

      // Inter-centroid distances and s(j).
      counter.pairwise(centroids, cc)
      var j = 0
      while (j < k) {
        var best = Double.PositiveInfinity
        var j2 = 0
        while (j2 < k) { if (j2 != j && cc(j)(j2) < best) best = cc(j)(j2); j2 += 1 }
        s(j) = best / 2
        j += 1
      }

      var i = 0
      while (i < n) {
        if (it == 0) {
          // Initial full scan fills every lower bound exactly.
          var best = -1; var bestD = Double.PositiveInfinity
          var c = 0
          while (c < k) {
            val t = counter.dist(data(i), centroids(c))
            l(i)(c) = t
            if (t < bestD) { bestD = t; best = c }
            c += 1
          }
          a(i) = best; u(i) = bestD
        } else if (u(i) > s(a(i))) {
          var tight = false
          var c = 0
          while (c < k) {
            if (c != a(i) && u(i) > l(i)(c) && u(i) > cc(a(i))(c) / 2) {
              if (!tight) { // 3a: tighten the upper bound once
                u(i) = counter.dist(data(i), centroids(a(i)))
                l(i)(a(i)) = u(i)
                tight = true
              }
              if (u(i) > l(i)(c) && u(i) > cc(a(i))(c) / 2) { // 3b
                val t = counter.dist(data(i), centroids(c))
                l(i)(c) = t
                if (t < u(i)) { a(i) = c; u(i) = t }
              }
            }
            c += 1
          }
        }
        i += 1
      }
      0L
    }
  }
}
