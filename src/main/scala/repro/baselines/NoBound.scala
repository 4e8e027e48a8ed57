package repro.baselines

import repro.core._

/** NoBound [64] (Xia et al., "ball k-means"): no per-point bounds. Each
  * cluster is a ball with radius max_{x∈S_j} ‖x − c_j‖; a point can only
  * move to a *neighbour* cluster (within 2·r_j of c_j, found from the k×k
  * centroid distance matrix recomputed every iteration), and points inside
  * the stable area (closer than half the distance to the nearest neighbour
  * centroid) are not compared at all. The first iteration is a full Lloyd
  * assignment — the expensive initialisation the paper observes.
  */
final class NoBound extends KMeansAlgo {
  override def name: String = "NoBound"

  override def extraMemoryFloats(n: Long, k: Long, d: Long): Long = k * k + n + 2 * k

  override protected def start(
      data: Array[Array[Double]],
      k: Int,
      init: Array[Array[Double]],
      counter: DistanceCounter,
  ): KMeansAlgo.Run = new KMeansAlgo.PointRun(data) {
    private val n = data.length
    private val dToOwn = new Array[Double](n) // ‖x − c_a(x)‖ under current centroids
    private val radius = new Array[Double](k)
    private val cc = Array.ofDim[Double](k, k)

    override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
      if (it == 0) {
        // Full assignment (the costly init the paper reports).
        var i = 0
        while (i < n) {
          val b = counter.nearest2(data(i), centroids)
          a(i) = b.i1; dToOwn(i) = b.d1
          i += 1
        }
      } else {
        counter.pairwise(centroids, cc) // the k×k matrix: the algorithm's signature cost
        // Cluster radii from the members' distances to their own centroid.
        java.util.Arrays.fill(radius, 0.0)
        var i = 0
        while (i < n) {
          val c = a(i)
          dToOwn(i) = counter.dist(data(i), centroids(c))
          if (dToOwn(i) > radius(c)) radius(c) = dToOwn(i)
          i += 1
        }
        // Neighbour sets: only clusters within 2·r_j can steal points of j.
        val neighbours = Array.tabulate(k) { c =>
          val buf = scala.collection.mutable.ArrayBuffer.empty[Int]
          var j2 = 0
          while (j2 < k) { if (j2 != c && cc(c)(j2) < 2 * radius(c)) buf += j2; j2 += 1 }
          buf.toArray
        }
        val halfNearest = Array.tabulate(k) { c =>
          var m = Double.PositiveInfinity
          neighbours(c).foreach(j2 => if (cc(c)(j2) < m) m = cc(c)(j2))
          m / 2
        }
        i = 0
        while (i < n) {
          val c = a(i)
          if (dToOwn(i) > halfNearest(c)) { // outside the stable area
            var best = c; var bestD = dToOwn(i)
            val ns = neighbours(c)
            var x = 0
            while (x < ns.length) {
              val j2 = ns(x)
              // a neighbour can only win if its half-plane boundary is crossed
              if (cc(c)(j2) / 2 < dToOwn(i)) {
                val t = counter.dist(data(i), centroids(j2))
                if (t < bestD) { bestD = t; best = j2 }
              }
              x += 1
            }
            if (best != c) { a(i) = best; dToOwn(i) = bestD }
          }
          i += 1
        }
      }
      0L
    }
  }
}
