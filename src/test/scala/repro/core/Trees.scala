package repro.core

/** Test-side readers of a built Ball-tree. */
object Trees {

  /** The members of a leaf of `t`, in the tree's order. */
  def members(t: BallTree.Built, leaf: BallNode): Seq[Int] = t.idx.slice(leaf.start, leaf.end).toSeq

  /** The points covered by `node`, leaf by leaf in preorder. */
  def covered(t: BallTree.Built, node: BallNode): Seq[Int] =
    if (node.isLeaf) members(t, node) else covered(t, node.left) ++ covered(t, node.right)

  /** The nodes of `t` in preorder, walked through the child links. */
  def preorder(t: BallTree.Built): Seq[BallNode] = {
    def walk(n: BallNode): Seq[BallNode] = if (n.isLeaf) Seq(n) else n +: (walk(n.left) ++ walk(n.right))
    walk(t.root)
  }

  /** Every node of `t` in preorder as longs: id, pivot bits, radius bits,
    * count, then a leaf's members in order (−1 for an internal node).
    */
  def signature(t: BallTree.Built): Seq[Seq[Long]] =
    preorder(t).map { n =>
      Seq(n.id.toLong) ++ n.pivot.map(java.lang.Double.doubleToLongBits) ++
        Seq(java.lang.Double.doubleToLongBits(n.radius), n.count.toLong) ++
        (if (n.isLeaf) members(t, n).map(_.toLong) else Seq(-1L))
    }

  /** A hash of [[signature]]. */
  def pin(t: BallTree.Built): Int = java.util.Arrays.hashCode(signature(t).flatten.toArray)
}
