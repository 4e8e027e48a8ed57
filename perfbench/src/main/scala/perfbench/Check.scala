package perfbench

import repro.core.Vec
import repro.spark.PartitionIndexCache

final class CheckFailed(msg: String) extends RuntimeException(msg)

/** Exactness checks on the program's outputs. */
object Check {

  def require(cond: Boolean, msg: => String): Unit = if (!cond) throw new CheckFailed(msg)

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  /** The last assignment step of `out` is exact and its centroids are the
    * means of their members. `prev` are the centroids that step assigned
    * against (those of a run stopped one iteration earlier). A point must
    * sit at a nearest centroid of `prev`; returns how many sit at a nearest
    * centroid other than the lowest-id one (ties).
    */
  def lastStep(data: Array[Array[Double]], prev: Array[Array[Double]], out: Outcome): Int = {
    val k = prev.length; val d = data(0).length
    require(out.assignments.length == data.length, "one assignment per point")
    // The brute-force scan is the expensive part; it runs on all processors.
    val nearest = new Array[Int](data.length)
    val nearestDist = new Array[Double](data.length)
    java.util.stream.IntStream.range(0, data.length).parallel().forEach { i =>
      var best = Double.PositiveInfinity; var bestId = -1
      var j = 0
      while (j < k) { val t = Vec.dist2(data(i), prev(j)); if (t < best) { best = t; bestId = j }; j += 1 }
      nearest(i) = bestId; nearestDist(i) = best
    }
    val sums = Array.fill(k)(new Array[Double](d))
    val counts = new Array[Long](k)
    var ties = 0
    var i = 0
    while (i < data.length) {
      val p = data(i); val a = out.assignments(i)
      require(a >= 0 && a < k, s"point $i has cluster $a")
      val best = nearestDist(i); val bestId = nearest(i)
      val mine = Vec.dist2(p, prev(a))
      require(mine == best || math.sqrt(mine) == math.sqrt(best),
        s"point $i is in cluster $a at distance ${math.sqrt(mine)}; cluster $bestId is at ${math.sqrt(best)}")
      if (a != bestId) ties += 1
      Vec.addInto(sums(a), p); counts(a) += 1
      i += 1
    }
    var j = 0
    while (j < k) {
      val want = if (counts(j) > 0) Vec.scale(sums(j), 1.0 / counts(j)) else prev(j)
      var c = 0
      while (c < d) {
        require(close(out.centroids(j)(c), want(c)),
          s"centroid $j[$c] is ${out.centroids(j)(c)}, the mean of its ${counts(j)} members is ${want(c)}")
        c += 1
      }
      j += 1
    }
    ties
  }

  /** Bit-identical outcomes: centroids, assignments, iterations, distances
    * and pruned vectors.
    */
  def identical(got: Outcome, want: Outcome, what: String): Unit = {
    require(got.iterations == want.iterations, s"$what: ${got.iterations} iterations, want ${want.iterations}")
    require(got.centroids.length == want.centroids.length &&
      got.centroids.indices.forall(j => java.util.Arrays.equals(got.centroids(j), want.centroids(j))),
      s"$what: centroids differ")
    require(java.util.Arrays.equals(got.assignments, want.assignments), s"$what: assignments differ")
    require(got.distances == want.distances, s"$what: ${got.distances} distances, want ${want.distances}")
    require(got.pruned == want.pruned, s"$what: ${got.pruned} pruned vectors, want ${want.pruned}")
  }

  /** Spark output against the serial outcome from the same initial
    * centroids: centroids to 1e-9 relative, weights equal to the serial
    * cluster sizes and summing to n, and no cache entry left behind.
    */
  def simplified(got: Simplified, want: Outcome, n: Long, what: String): Unit = {
    val k = want.centroids.length
    require(got.centroids.length == k, s"$what: ${got.centroids.length} representatives, want $k")
    var j = 0
    while (j < k) {
      val a = got.centroids(j); val b = want.centroids(j)
      require(a.length == b.length && a.indices.forall(c => close(a(c), b(c))),
        s"$what: centroid $j is ${a.mkString(",")}, serial has ${b.mkString(",")}")
      j += 1
    }
    val sizes = new Array[Long](k)
    want.assignments.foreach(a => sizes(a) += 1)
    require(got.weights.sum == n, s"$what: weights sum to ${got.weights.sum}, want $n")
    require(got.weights.sameElements(sizes), s"$what: weights differ from the serial cluster sizes")
    require(PartitionIndexCache.size == 0, s"$what: ${PartitionIndexCache.size} cache entries left")
  }
}
