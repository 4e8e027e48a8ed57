package repro.core

/** Mutable cluster-membership bookkeeping over a Ball-tree, shared by
  * [[DaskMeans]] and the Dual-tree baseline.
  *
  * Maintains per-cluster counts and dynamic sum vectors (§IV-B) while whole
  * nodes move between clusters in O(d): a node's marker `c ≥ 0` means its
  * entire subtree is in cluster `c`, −1 that it is not (split, or not yet
  * assigned). Markers are pushed one level down only when a traversal
  * descends past the node, so per-iteration cost is proportional to the
  * assignment frontier. The markers belong to this state, not to the tree,
  * so several states can share one tree; so do the candidate lists that
  * [[DaskAssign.step]] hands down the tree.
  */
final class TreeAssignmentState(
    val data: Array[Array[Double]],
    val tree: BallTree.Built,
    val k: Int,
) {
  val d: Int = data(0).length
  val assignments: Array[Int] = Array.fill(data.length)(-1)
  val counts: Array[Long] = new Array[Long](k)
  val sums: Array[Array[Double]] = Array.fill(k)(new Array[Double](d))
  private val owners: Array[Int] = Array.fill(tree.nodeCount)(-1)

  /** The cluster that holds the whole subtree of `node`, or −1. */
  def owner(node: BallNode): Int = owners(node.id)

  /** Subtract every member of `node` from its current cluster. */
  def removeFromClusters(node: BallNode): Unit = {
    val c = owners(node.id)
    if (c >= 0) { counts(c) -= node.count; Vec.subInto(sums(c), node.sum) }
    else if (node.isLeaf) {
      var i = 0
      while (i < node.points.length) {
        val p = node.points(i); val a = assignments(p)
        if (a >= 0) { counts(a) -= 1; Vec.subInto(sums(a), data(p)) }
        i += 1
      }
    } else { removeFromClusters(node.left); removeFromClusters(node.right) }
  }

  /** Move the whole node into cluster `c` (no-op when already wholly there).
    * Returns true when a move actually happened.
    */
  def batchAssign(node: BallNode, c: Int): Boolean = {
    if (owners(node.id) == c) return false
    removeFromClusters(node)
    counts(c) += node.count; Vec.addInto(sums(c), node.sum)
    owners(node.id) = c
    true
  }

  /** Push a whole-subtree marker one level down before descending; `onPoint` /
    * `onChild` let the caller refresh its own per-point / per-node side
    * state (e.g. Dual-tree bounds) for freshly materialised assignments.
    */
  def pushDown(node: BallNode)(onPoint: Int => Unit = _ => (), onChild: BallNode => Unit = _ => ()): Unit = {
    val c = owners(node.id)
    if (c < 0) return
    if (node.isLeaf) {
      var i = 0
      while (i < node.points.length) {
        val p = node.points(i)
        if (assignments(p) != c) { assignments(p) = c; onPoint(p) }
        i += 1
      }
    } else {
      if (owners(node.left.id) != c) { owners(node.left.id) = c; onChild(node.left) }
      if (owners(node.right.id) != c) { owners(node.right.id) = c; onChild(node.right) }
    }
    owners(node.id) = -1
  }

  /** Move a single point (leaf must have been pushed down first). */
  def assignPoint(p: Int, c: Int): Boolean = {
    val prev = assignments(p)
    if (prev == c) return false
    if (prev >= 0) { counts(prev) -= 1; Vec.subInto(sums(prev), data(p)) }
    counts(c) += 1; Vec.addInto(sums(c), data(p))
    assignments(p) = c
    true
  }

  /** Resolve outstanding whole-subtree markers into the per-point array. */
  def materialize(): Array[Int] = {
    def setAll(node: BallNode, c: Int): Unit =
      if (node.isLeaf) { var i = 0; while (i < node.points.length) { assignments(node.points(i)) = c; i += 1 } }
      else { setAll(node.left, c); setAll(node.right, c) }
    def walk(node: BallNode): Unit =
      if (owners(node.id) >= 0) setAll(node, owners(node.id))
      else if (!node.isLeaf) { walk(node.left); walk(node.right) }
    walk(tree.root)
    assignments
  }

  private lazy val buffers = new KMeans.Buffers(k, d)

  /** The candidate lists and distance scratch of [[DaskAssign.step]]'s
    * searches, reused by every step of the run.
    */
  lazy val candidates: CandidateLists = new CandidateLists(k)

  /** Refine centroids from the dynamic sums; empty clusters keep theirs.
    * Writes into whichever of the state's two centroid buffers `old` is not
    * and returns it, so it never returns `old` or a row of it and, after
    * the first call allocates the buffers, allocates nothing. The returned
    * centroids stay valid until the call after next.
    */
  def refine(old: Array[Array[Double]], drifts: Array[Double]): Array[Array[Double]] =
    KMeans.fromSums(sums, counts, old, drifts, buffers.other(old))
}
