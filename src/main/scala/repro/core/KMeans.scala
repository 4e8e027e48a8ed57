package repro.core

import scala.util.Random

/** Result of one k-means run.
  *
  * @param centroids            final k centroids
  * @param assignments          final per-point cluster id
  * @param iterations           assignment phases executed (≤ maxIters)
  * @param initMs               time spent before the first iteration (index
  *                             construction, bound matrices, …)
  * @param iterMs               wall time of each iteration
  * @param distanceComputations full d-dimensional distance evaluations
  * @param batchPrunedVectors   point-iterations assigned without an
  *                             individual centroid search (paper Table VII
  *                             "pruned vectors")
  */
final case class KMeansResult(
    centroids: Array[Array[Double]],
    assignments: Array[Int],
    iterations: Int,
    initMs: Double,
    iterMs: Array[Double],
    distanceComputations: Long,
    batchPrunedVectors: Long,
) {
  def totalMs: Double = initMs + iterMs.sum

  /** Sum of squared errors of this clustering over `data`. */
  def sse(data: Array[Array[Double]]): Double = {
    var s = 0.0; var i = 0
    while (i < data.length) { s += Vec.dist2(data(i), centroids(assignments(i))); i += 1 }
    s
  }
}

/** One algorithm's per-run state, built in its init phase and driven by
  * [[KMeans.iterate]] through Lloyd's assign → refine → converge sequence.
  */
trait KMeansRun {

  /** Assign every point to its nearest of `centroids`. `drifts` are the
    * previous refine's per-centroid drifts, all zero at `it` = 0. Returns
    * the vectors assigned without an individual centroid search.
    */
  def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long

  /** The next centroids from the current assignment; writes each one's
    * drift from `centroids` into `drifts`. The result may be a buffer of
    * the run that a later call overwrites, but never `centroids` itself.
    */
  def refine(centroids: Array[Array[Double]], drifts: Array[Double]): Array[Array[Double]]
}

/** An exact k-means algorithm: must produce Lloyd's fixed point sequence. */
trait KMeansAlgo {
  def name: String

  /** Extra memory (8-byte slots) this algorithm allocates beyond the dataset
    * — drives the device memory gate that produces the paper's N/A cells.
    */
  def extraMemoryFloats(n: Long, k: Long, d: Long): Long

  /** The init phase: build this algorithm's per-run state (indexes, bounds,
    * …) over `data`, counting every distance it computes in `counter`.
    */
  protected def start(
      data: Array[Array[Double]],
      k: Int,
      init: Array[Array[Double]],
      counter: DistanceCounter,
  ): KMeansAlgo.Run

  /** Run from the given initial centroids (shared across algorithms so runs
    * are comparable and exactness is testable).
    */
  final def run(data: Array[Array[Double]], k: Int, maxIters: Int, init: Array[Array[Double]]): KMeansResult = {
    require(maxIters >= 1, "need at least one iteration")
    require(data.nonEmpty, "need at least one data point")
    require(init.length == k, s"need k=$k initial centroids, got ${init.length}")
    require(k >= 1 && k <= data.length, s"need 1 <= k <= n, got k=$k n=${data.length}")
    require(Vec.allFinite(data), "data has a NaN or infinite coordinate")
    require(Vec.allFinite(init), "initial centroids have a NaN or infinite coordinate")
    val t0 = System.nanoTime()
    val counter = new DistanceCounter
    val state = start(data, k, init, counter)
    val initMs = (System.nanoTime() - t0) / 1e6
    val out = KMeans.iterate(init, maxIters, state)
    KMeansResult(out.centroids, state.assignments, out.iterations, initMs, out.iterMs, counter.count, out.pruned)
  }
}

object KMeansAlgo {

  /** Per-run state of a serial algorithm, which also yields the final
    * per-point assignments.
    */
  trait Run extends KMeansRun {
    def assignments: Array[Int]
  }

  /** A run that keeps one cluster id per point in `a` and refines with
    * [[KMeans.refine]].
    */
  abstract class PointRun(data: Array[Array[Double]]) extends Run {
    val a: Array[Int] = new Array[Int](data.length)

    override def refine(centroids: Array[Array[Double]], drifts: Array[Double]): Array[Array[Double]] =
      KMeans.refine(data, a, centroids, drifts)

    override def assignments: Array[Int] = a
  }
}

object KMeans {

  /** Centroid-drift threshold below which a run is declared converged. */
  val Eps: Double = 1e-12

  /** Outcome of [[iterate]]: final centroids, assignment phases run, pruned
    * vectors summed over them, and the wall time of each.
    */
  final case class Iterated(centroids: Array[Array[Double]], iterations: Int, pruned: Long, iterMs: Array[Double])

  /** The iteration driver of every algorithm, serial or distributed
    * (Algorithm 1): from `init`, assign then refine until no centroid drifts
    * more than [[Eps]] or `maxIters` assignment phases have run.
    */
  def iterate(init: Array[Array[Double]], maxIters: Int, run: KMeansRun): Iterated = {
    var centroids = init.map(_.clone())
    val drifts = new Array[Double](init.length)
    val iterMs = Array.newBuilder[Double]
    var pruned = 0L
    var it = 0
    var converged = false
    while (it < maxIters && !converged) {
      val t0 = System.nanoTime()
      pruned += run.assign(centroids, it, drifts)
      centroids = run.refine(centroids, drifts)
      it += 1
      converged = maxDrift(drifts) <= Eps
      iterMs += (System.nanoTime() - t0) / 1e6
    }
    Iterated(centroids, it, pruned, iterMs.result())
  }

  /** Deterministic initial centroids: a seeded sample of k distinct points
    * (the paper compares exact accelerators, so all algorithms must share
    * the same start).
    */
  def initCentroids(data: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
    require(k >= 1 && k <= data.length, s"need 1 <= k <= n, got k=$k n=${data.length}")
    val rnd = new Random(seed)
    val picked = new java.util.HashSet[Int]()
    val out = new Array[Array[Double]](k)
    var j = 0
    while (j < k) {
      val i = rnd.nextInt(data.length)
      if (picked.add(i)) { out(j) = data(i).clone(); j += 1 }
    }
    out
  }

  /** Standard refinement: mean of members, keeping the previous centroid
    * for an emptied cluster. Writes the drifts into `drifts`.
    */
  def refine(
      data: Array[Array[Double]],
      assignments: Array[Int],
      old: Array[Array[Double]],
      drifts: Array[Double],
  ): Array[Array[Double]] = {
    val k = old.length; val d = old(0).length
    val sums = Array.fill(k)(new Array[Double](d))
    val counts = new Array[Long](k)
    var i = 0
    while (i < data.length) {
      val a = assignments(i)
      Vec.addInto(sums(a), data(i)); counts(a) += 1
      i += 1
    }
    fromSums(sums, counts, old, drifts, sums)
  }

  /** Refinement from pre-aggregated (sum, count) pairs, written into `out`
    * and returned: each row is its cluster's mean, or a copy of the `old`
    * row for an emptied cluster. `out` may be `sums` itself but must share
    * no row with `old`. Writes the drifts into `drifts`.
    */
  def fromSums(
      sums: Array[Array[Double]],
      counts: Array[Long],
      old: Array[Array[Double]],
      drifts: Array[Double],
      out: Array[Array[Double]],
  ): Array[Array[Double]] = {
    var j = 0
    while (j < old.length) {
      if (counts(j) > 0) Vec.scaleInto(out(j), sums(j), 1.0 / counts(j))
      else System.arraycopy(old(j), 0, out(j), 0, out(j).length)
      drifts(j) = Vec.dist(out(j), old(j))
      j += 1
    }
    out
  }

  /** Two k×d centroid buffers for a run to refine into by turns: `other(old)`
    * is the one that is not `old`, so refined centroids never share an
    * array with the centroids they were refined from, and a run allocates
    * its centroids once.
    */
  final class Buffers(k: Int, d: Int) {
    private val a = Array.fill(k)(new Array[Double](d))
    private val b = Array.fill(k)(new Array[Double](d))

    def other(old: Array[Array[Double]]): Array[Array[Double]] = if (old eq a) b else a
  }

  def maxDrift(drifts: Array[Double]): Double = { var m = 0.0; var j = 0; while (j < drifts.length) { if (drifts(j) > m) m = drifts(j); j += 1 }; m }
}
