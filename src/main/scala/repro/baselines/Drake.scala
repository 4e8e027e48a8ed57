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

    // Bounded max-heap over (distance, id) used to select the b+2 closest.
    private val heapSize = math.min(k, nb + 2)
    private val heapD = new Array[Double](heapSize)
    private val heapI = new Array[Int](heapSize)

    override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
      def fullRecompute(i: Int): Unit = {
        var m = 0 // current heap fill
        var j = 0
        while (j < k) {
          val t = counter.dist(data(i), centroids(j))
          if (m < heapSize) {
            // push
            heapD(m) = t; heapI(m) = j; m += 1
            var c = m - 1
            while (c > 0 && heapD((c - 1) / 2) < heapD(c)) {
              val p = (c - 1) / 2
              val td = heapD(p); heapD(p) = heapD(c); heapD(c) = td
              val ti = heapI(p); heapI(p) = heapI(c); heapI(c) = ti
              c = p
            }
          } else if (t < heapD(0)) {
            // replace root, sift down
            heapD(0) = t; heapI(0) = j
            var c = 0
            var done = false
            while (!done) {
              val l = 2 * c + 1; val r = 2 * c + 2
              var big = c
              if (l < m && heapD(l) > heapD(big)) big = l
              if (r < m && heapD(r) > heapD(big)) big = r
              if (big == c) done = true
              else {
                val td = heapD(big); heapD(big) = heapD(c); heapD(c) = td
                val ti = heapI(big); heapI(big) = heapI(c); heapI(c) = ti
                c = big
              }
            }
          }
          j += 1
        }
        // Insertion-sort the m collected entries ascending.
        var x = 1
        while (x < m) {
          val td = heapD(x); val ti = heapI(x)
          var y = x - 1
          while (y >= 0 && heapD(y) > td) { heapD(y + 1) = heapD(y); heapI(y + 1) = heapI(y); y -= 1 }
          heapD(y + 1) = td; heapI(y + 1) = ti
          x += 1
        }
        a(i) = heapI(0); u(i) = heapD(0)
        var z = 0
        while (z < nb && z + 1 < m) { candId(i)(z) = heapI(z + 1); candLb(i)(z) = heapD(z + 1); z += 1 }
        while (z < nb) { candId(i)(z) = a(i); candLb(i)(z) = Double.PositiveInfinity; z += 1 } // k−1 < b filler
        rest(i) = if (m == nb + 2 && m == heapSize && k > nb + 1) heapD(m - 1) else Double.PositiveInfinity
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
