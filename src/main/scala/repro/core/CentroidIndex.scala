package repro.core

/** Ball-tree over the k cluster centroids, rebuilt each iteration (§IV-A).
  *
  * Supports the paper's bounded 1-/2-nearest-neighbour searches
  * (Algorithm 1, function kNN): the result queue H is initialised to the
  * caller-supplied upper bound `ub` (inherited from a parent node, Eq. 7, or
  * from drifts, Eq. 9), and a centroid node N_C is pruned when
  * ‖q − N_C.p*‖ − N_C.r exceeds the current H[k] (Eq. 8).
  */
final class CentroidIndex(
    val centroids: Array[Array[Double]],
    leafCapacity: Int,
    counter: DistanceCounter,
) {
  val built: BallTree.Built = BallTree.build(centroids, math.max(2, leafCapacity))

  private def search(b: Best2, want: Int, q: Array[Double], node: BallNode): Unit = {
    @inline def threshold: Double = if (want == 1) b.d1 else b.d2
    if (node.isLeaf) {
      var i = 0
      while (i < node.points.length) {
        val ci = node.points(i)
        val d = counter.dist(q, centroids(ci))
        if (d < threshold) b.insert(ci, d)
        i += 1
      }
    } else {
      val dl = counter.dist(q, node.left.pivot)
      val dr = counter.dist(q, node.right.pivot)
      val (first, dFirst, second, dSecond) =
        if (dl <= dr) (node.left, dl, node.right, dr) else (node.right, dr, node.left, dl)
      if (dFirst - first.radius < threshold) search(b, want, q, first)
      if (dSecond - second.radius < threshold) search(b, want, q, second)
    }
  }

  /** Nearest centroid of q; `ub` must upper-bound the true 1-NN distance
    * (falls back to an unbounded search if it turned out not to).
    * `seedId`/`seedDist` optionally pre-populate the queue with an already
    * computed candidate.
    */
  def nn1(q: Array[Double], ub: Double, seedId: Int = -1, seedDist: Double = 0.0): (Int, Double) = {
    var b = new Best2(ub)
    if (seedId >= 0 && seedDist < ub) b.insert(seedId, seedDist)
    search(b, 1, q, built.root)
    if (b.i1 < 0) { b = new Best2(Double.PositiveInfinity); search(b, 1, q, built.root) }
    (b.i1, b.d1)
  }

  /** Two nearest centroids of q; `ub` must upper-bound the true 2-NN
    * distance. Requires k ≥ 2.
    */
  def nn2(q: Array[Double], ub: Double, seedId: Int = -1, seedDist: Double = 0.0): Best2 = {
    var b = new Best2(ub)
    if (seedId >= 0 && seedDist < ub) b.insert(seedId, seedDist)
    search(b, 2, q, built.root)
    if (b.i1 < 0 || b.i2 < 0) { b = new Best2(Double.PositiveInfinity); search(b, 2, q, built.root) }
    b
  }
}
