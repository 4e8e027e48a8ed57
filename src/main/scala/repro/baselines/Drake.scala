package repro.baselines

import repro.core._

/** Drake's algorithm [19]: each point carries its assigned centroid plus a
  * list of b = ⌈k/4⌉ next-closest candidate centroids with lower bounds,
  * and one collective lower bound for everything beyond the list. Memory
  * ≈ 2nb ≈ n·k/2 — the paper's N/A cells at large k.
  */
final class Drake extends KMeansAlgo {
  override def name: String = "Drake"

  def b(k: Int): Int = math.max(1, math.min(k - 1, (k + 3) / 4))

  override def extraMemoryFloats(n: Long, k: Long, d: Long): Long =
    2L * n * b(k.toInt) + 2L * n

  override protected def start(
      data: Array[Array[Double]],
      k: Int,
      init: Array[Array[Double]],
      counter: DistanceCounter,
  ): KMeansAlgo.Run = new KMeansAlgo.PointRun(data) {
    private val n = data.length
    private val nb = b(k)
    private val u = new Array[Double](n)
    private val candId = Array.ofDim[Int](n, nb)
    private val candLb = Array.ofDim[Double](n, nb)
    private val rest = new Array[Double](n) // lower bound for centroids beyond the list
    private val exact = new Array[Double](nb)

    // The b+2 closest centroids of a full recompute, ascending by distance.
    private val nearSize = math.min(k, nb + 2)
    private val nearD = new Array[Double](nearSize)
    private val nearI = new Array[Int](nearSize)

    override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
      def fullRecompute(i: Int): Unit = {
        // Bounded insertion in id order: equal distances keep id order, and
        // a centroid enters a full list only if strictly closer than its last.
        var m = 0 // current fill
        var j = 0
        while (j < k) {
          val t = counter.dist(data(i), centroids(j))
          if (m < nearSize || t < nearD(m - 1)) {
            if (m < nearSize) m += 1
            var y = m - 1
            while (y > 0 && nearD(y - 1) > t) { nearD(y) = nearD(y - 1); nearI(y) = nearI(y - 1); y -= 1 }
            nearD(y) = t; nearI(y) = j
          }
          j += 1
        }
        a(i) = nearI(0); u(i) = nearD(0)
        var z = 0
        while (z < nb && z + 1 < m) { candId(i)(z) = nearI(z + 1); candLb(i)(z) = nearD(z + 1); z += 1 }
        while (z < nb) { candId(i)(z) = a(i); candLb(i)(z) = Double.PositiveInfinity; z += 1 } // k−1 < b filler
        rest(i) = if (m == nb + 2 && m == nearSize && k > nb + 1) nearD(m - 1) else Double.PositiveInfinity
      }

      // Loosen the bounds by the last refine's drifts.
      if (it > 0) {
        val maxDrift = KMeans.maxDrift(drifts)
        var i = 0
        while (i < n) {
          u(i) += drifts(a(i))
          var z = 0
          while (z < nb) { candLb(i)(z) -= drifts(candId(i)(z)); z += 1 }
          rest(i) -= maxDrift
          i += 1
        }
      }

      var i = 0
      while (i < n) {
        if (it == 0) fullRecompute(i)
        else {
          var minLb = rest(i)
          var z = 0
          while (z < nb) { if (candLb(i)(z) < minLb) minLb = candLb(i)(z); z += 1 }
          if (u(i) > minLb) {
            u(i) = counter.dist(data(i), centroids(a(i))) // tighten
            if (u(i) > minLb) {
              // Exact distances to the cached candidates.
              var best = a(i); var bestD = u(i)
              z = 0
              while (z < nb) {
                val c = candId(i)(z)
                exact(z) = if (c == a(i)) u(i) else counter.dist(data(i), centroids(c))
                if (exact(z) < bestD) { bestD = exact(z); best = c }
                z += 1
              }
              if (bestD <= rest(i)) {
                // Winner is global; rebuild the candidate list exactly.
                if (best != a(i)) {
                  z = 0
                  var done = false
                  while (z < nb && !done) {
                    if (candId(i)(z) == best) { candId(i)(z) = a(i); exact(z) = u(i); done = true }
                    z += 1
                  }
                  a(i) = best; u(i) = bestD
                }
                z = 0
                while (z < nb) { candLb(i)(z) = exact(z); z += 1 }
              } else fullRecompute(i)
            }
          }
        }
        i += 1
      }
      0L
    }
  }
}
