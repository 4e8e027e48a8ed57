package repro.core

/** Dense-vector kernels for the k-means algorithms.
  *
  * All spatial vectors are `Array[Double]`; every distance routed through
  * [[DistanceCounter]] so each algorithm can report its pruning power
  * (number of full d-dimensional distance computations) exactly as the
  * paper does.
  */
object Vec {

  /** Euclidean distance ‖a − b‖. */
  def dist(a: Array[Double], b: Array[Double]): Double = math.sqrt(dist2(a, b))

  /** Squared Euclidean distance ‖a − b‖². */
  def dist2(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val t = a(i) - b(i); s += t * t; i += 1 }
    s
  }

  /** Index of the nearest of `cs` to `p` by squared distance; on a tie the
    * lowest index wins.
    */
  def nearest(p: Array[Double], cs: Array[Array[Double]]): Int = {
    var best = 0; var bd = Double.PositiveInfinity
    var j = 0
    while (j < cs.length) { val t = dist2(p, cs(j)); if (t < bd) { bd = t; best = j }; j += 1 }
    best
  }

  /** Whether every coordinate of every vector is finite (neither NaN nor
    * infinite); a primitive loop, so no coordinate is boxed.
    */
  def allFinite(vs: Array[Array[Double]]): Boolean = {
    var j = 0
    while (j < vs.length) {
      val v = vs(j); var i = 0
      while (i < v.length) { if (!java.lang.Double.isFinite(v(i))) return false; i += 1 }
      j += 1
    }
    true
  }

  /** In-place a += b. */
  def addInto(a: Array[Double], b: Array[Double]): Unit = {
    var i = 0; while (i < a.length) { a(i) += b(i); i += 1 }
  }

  /** In-place a −= b. */
  def subInto(a: Array[Double], b: Array[Double]): Unit = {
    var i = 0; while (i < a.length) { a(i) -= b(i); i += 1 }
  }

  /** a · s as a fresh array. */
  def scale(a: Array[Double], s: Double): Array[Double] = scaleInto(new Array[Double](a.length), a, s)

  /** out := a · s, in place; returns `out`. */
  def scaleInto(out: Array[Double], a: Array[Double], s: Double): Array[Double] = {
    var i = 0; while (i < a.length) { out(i) = a(i) * s; i += 1 }
    out
  }
}

/** Mutable counter threaded through an algorithm run; one per run, never
  * shared across threads.
  */
final class DistanceCounter {
  var count: Long = 0L

  def dist(a: Array[Double], b: Array[Double]): Double = { count += 1; Vec.dist(a, b) }

  def dist2(a: Array[Double], b: Array[Double]): Double = { count += 1; Vec.dist2(a, b) }

  /** Fills `out` with the symmetric matrix of distances between `cs`, 0 on
    * the diagonal: one counted distance per pair j < j2.
    */
  def pairwise(cs: Array[Array[Double]], out: Array[Array[Double]]): Unit = {
    var j = 0
    while (j < cs.length) {
      out(j)(j) = 0.0
      var j2 = j + 1
      while (j2 < cs.length) {
        val t = dist(cs(j), cs(j2))
        out(j)(j2) = t; out(j2)(j) = t
        j2 += 1
      }
      j += 1
    }
  }

  /** The two nearest of `cs` to `q` by distance, written into the caller's
    * queue `out`, which is reset first and returned. Scanned in id order
    * with strict `<`, so the lowest id wins a tie. Centroid `skip` is taken
    * at the already known `skipDist` and not counted. Allocates nothing.
    */
  def nearest2(q: Array[Double], cs: Array[Array[Double]], out: Best2, skip: Int = -1, skipDist: Double = 0.0): Best2 = {
    out.reset(Double.PositiveInfinity)
    var j = 0
    while (j < cs.length) { out.insert(j, if (j == skip) skipDist else dist(q, cs(j))); j += 1 }
    out
  }
}

/** Fixed-size-2 result queue: ids and distances of the best candidates,
  * d1 ≤ d2; slots start at the initial upper bound with id −1. A caller
  * that searches many times owns one queue and [[reset]]s it per search.
  */
final class Best2(ub: Double) {
  var i1: Int = -1; var d1: Double = ub
  var i2: Int = -1; var d2: Double = ub

  /** Empty both slots to the bound `ub`; returns this queue. */
  def reset(ub: Double): Best2 = { i1 = -1; d1 = ub; i2 = -1; d2 = ub; this }

  def insert(i: Int, d: Double): Unit = {
    if (i == i1 || i == i2) return
    if (d < d1) { i2 = i1; d2 = d1; i1 = i; d1 = d }
    else if (d < d2) { i2 = i; d2 = d }
  }
}
