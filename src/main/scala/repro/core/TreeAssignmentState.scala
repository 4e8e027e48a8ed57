package repro.core

/** Mutable cluster-membership bookkeeping over a Ball-tree, shared by
  * [[DaskMeans]] and the Dual-tree baseline.
  *
  * Maintains per-cluster counts and dynamic sum vectors (§IV-B) while whole
  * nodes move between clusters in O(d): a node's `wholly` marker means its
  * entire subtree is in `assignedCluster`; markers are pushed one level down
  * only when a traversal descends past the node, so per-iteration cost is
  * proportional to the assignment frontier.
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

  tree.root.resetAssignment()

  /** Subtract every member of `node` from its current cluster. */
  def removeFromClusters(node: BallNode): Unit = {
    if (node.wholly) {
      val c = node.assignedCluster
      if (c >= 0) { counts(c) -= node.count; Vec.subInto(sums(c), node.sum) }
    } else if (node.isLeaf) {
      var i = 0
      while (i < node.points.length) {
        val p = node.points(i); val c = assignments(p)
        if (c >= 0) { counts(c) -= 1; Vec.subInto(sums(c), data(p)) }
        i += 1
      }
    } else { removeFromClusters(node.left); removeFromClusters(node.right) }
  }

  /** Move the whole node into cluster `c` (no-op when already wholly there).
    * Returns true when a move actually happened.
    */
  def batchAssign(node: BallNode, c: Int): Boolean = {
    if (node.wholly && node.assignedCluster == c) return false
    removeFromClusters(node)
    counts(c) += node.count; Vec.addInto(sums(c), node.sum)
    node.assignedCluster = c; node.wholly = true
    true
  }

  /** Push a wholly marker one level down before descending; `onPoint` /
    * `onChild` let the caller refresh its own per-point / per-node side
    * state (e.g. Dual-tree bounds) for freshly materialised assignments.
    */
  def pushDown(node: BallNode)(onPoint: Int => Unit = _ => (), onChild: BallNode => Unit = _ => ()): Unit = {
    if (!node.wholly) return
    if (node.isLeaf) {
      var i = 0
      while (i < node.points.length) {
        val p = node.points(i)
        if (assignments(p) != node.assignedCluster) { assignments(p) = node.assignedCluster; onPoint(p) }
        i += 1
      }
    } else {
      if (node.left.assignedCluster != node.assignedCluster || !node.left.wholly) {
        node.left.assignedCluster = node.assignedCluster; node.left.wholly = true; onChild(node.left)
      }
      if (node.right.assignedCluster != node.assignedCluster || !node.right.wholly) {
        node.right.assignedCluster = node.assignedCluster; node.right.wholly = true; onChild(node.right)
      }
    }
    node.wholly = false
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

  /** Resolve outstanding wholly markers into the per-point array. */
  def materialize(): Array[Int] = {
    def setAll(node: BallNode, c: Int): Unit =
      if (node.isLeaf) { var i = 0; while (i < node.points.length) { assignments(node.points(i)) = c; i += 1 } }
      else { setAll(node.left, c); setAll(node.right, c) }
    def walk(node: BallNode): Unit =
      if (node.wholly) setAll(node, node.assignedCluster)
      else if (!node.isLeaf) { walk(node.left); walk(node.right) }
    walk(tree.root)
    assignments
  }

  /** Refine centroids from the dynamic sums; empty clusters keep theirs. */
  def refine(old: Array[Array[Double]], drifts: Array[Double]): Array[Array[Double]] =
    KMeans.fromSums(sums, counts, old, drifts)
}
