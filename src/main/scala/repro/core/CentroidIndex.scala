package repro.core

/** Ball-tree over the k cluster centroids, rebuilt each iteration (§IV-A).
  *
  * Supports the paper's bounded 1-/2-nearest-neighbour searches
  * (Algorithm 1, function kNN): the result queue H is initialised to the
  * caller-supplied upper bound `ub` (inherited from a parent node, Eq. 7, or
  * from drifts, Eq. 9), and a centroid node N_C is pruned when
  * ‖q − N_C.p*‖ − N_C.r exceeds the current H[k] (Eq. 8).
  *
  * The tree's leaf capacity is min(f, [[CentroidIndex.MaxLeafCapacity]]):
  * f is sized for the memory of the point tree (Eq. 12), while a search
  * here scans every centroid of a leaf it reaches, so smaller leaves let
  * Eq. 8 prune more. Results are the exact nearest 1/2 whatever the shape.
  */
final class CentroidIndex(
    val centroids: Array[Array[Double]],
    leafCapacity: Int,
    counter: DistanceCounter,
) {
  val built: BallTree.Built =
    BallTree.build(centroids, math.max(2, math.min(leafCapacity, CentroidIndex.MaxLeafCapacity)))

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
      def visit(child: BallNode, d: Double): Unit = if (d - child.radius < threshold) search(b, want, q, child)
      val dl = counter.dist(q, node.left.pivot)
      val dr = counter.dist(q, node.right.pivot)
      if (dl <= dr) { visit(node.left, dl); visit(node.right, dr) }
      else { visit(node.right, dr); visit(node.left, dl) }
    }
  }

  /** The `want` ∈ {1, 2} nearest centroids of q, written into the caller's
    * queue `out`, which is reset to `ub` first and returned. `ub` must
    * upper-bound the true `want`-NN distance; if it turns out not to, the
    * search runs again into the same queue with an infinite bound and
    * without the seed. `seedId`/`seedDist` optionally pre-populate the queue
    * with an already computed candidate. With `want` = 1 only `i1`/`d1` are
    * meaningful. With `want` = 2 and k = 1 the queue never fills, so the
    * result has `i2` = −1, `d2` = ∞. A search allocates nothing.
    */
  def nearest(q: Array[Double], want: Int, ub: Double, out: Best2, seedId: Int = -1, seedDist: Double = 0.0): Best2 = {
    out.reset(ub)
    if (seedId >= 0 && seedDist < ub) out.insert(seedId, seedDist)
    search(out, want, q, built.root)
    if ((if (want == 1) out.i1 else out.i2) < 0) search(out.reset(Double.PositiveInfinity), want, q, built.root)
    out
  }
}

object CentroidIndex {

  /** Largest leaf of the centroid tree. Leaves of 4–8 centroids computed
    * within 6% of the fewest distances on the T-drive and Argo-PC
    * stand-ins, against 1.6–1.8× as many at f = 30.
    */
  val MaxLeafCapacity: Int = 8
}
