package repro.core

/** A node of a Ball-tree (Omohundro-style) over a set of spatial vectors.
  *
  * Every node stores the pivot `p*` (mean of the covered vectors), the
  * radius `r` bounding all covered vectors, the covered count `|N|` and the
  * running sum of covered vectors (so a whole node can be moved between
  * clusters in O(d), see §IV-B "dynamic sum vector").
  *
  * Nodes are immutable, so one tree can serve any number of runs at once;
  * each run keeps its cluster markers in a side array indexed by `id`
  * ([[TreeAssignmentState]]).
  *
  * @param id      preorder index, unique within one tree (for side arrays)
  * @param pivot   mean of all covered vectors
  * @param radius  max distance from `pivot` to a covered vector
  * @param count   number of covered vectors
  * @param sum     componentwise sum of covered vectors
  * @param left    left child, `null` iff leaf
  * @param right   right child, `null` iff leaf
  * @param points  indices (into the dataset) of covered vectors; leaf only
  */
final class BallNode(
    val id: Int,
    val pivot: Array[Double],
    val radius: Double,
    val count: Int,
    val sum: Array[Double],
    val left: BallNode,
    val right: BallNode,
    val points: Array[Int],
) {
  def isLeaf: Boolean = left == null
}

/** Structural summary of a tree: the cost estimator's index meta-features
  * (`TaskFeatures.fromIndex`).
  */
final case class TreeStats(
    depth: Int,
    leafNodes: Int,
    internalNodes: Int,
    avgLeafFill: Double,
)

/** Ball-tree construction: split a node by the two mutually-farthest points
  * and assign each vector to the closer of the two, recursing until a node
  * holds at most `leafCapacity` (= the paper's f) vectors.
  */
object BallTree {

  final class Built(val root: BallNode, val nodeCount: Int, val leafCapacity: Int)

  def build(data: Array[Array[Double]], leafCapacity: Int): Built = {
    require(data.nonEmpty, "cannot build a Ball-tree over an empty dataset")
    require(leafCapacity >= 2, s"leaf capacity must be >= 2, got $leafCapacity")
    val idx = Array.range(0, data.length)
    var nextId = 0
    def newId(): Int = { val i = nextId; nextId += 1; i }

    def mk(lo: Int, hi: Int): BallNode = {
      val n = hi - lo
      val d = data(idx(lo)).length
      val sum = new Array[Double](d)
      var i = lo
      while (i < hi) { Vec.addInto(sum, data(idx(i))); i += 1 }
      val pivot = Vec.scale(sum, 1.0 / n)
      var radius = 0.0
      i = lo
      while (i < hi) { val t = Vec.dist(pivot, data(idx(i))); if (t > radius) radius = t; i += 1 }
      val id = newId()
      if (n <= leafCapacity) {
        val pts = java.util.Arrays.copyOfRange(idx, lo, hi)
        new BallNode(id, pivot, radius, n, sum, null, null, pts)
      } else {
        // Farthest from pivot, then farthest from that: an approximate diameter.
        var p1 = idx(lo); var best = -1.0
        i = lo
        while (i < hi) { val t = Vec.dist2(pivot, data(idx(i))); if (t > best) { best = t; p1 = idx(i) }; i += 1 }
        var p2 = idx(lo); best = -1.0
        i = lo
        while (i < hi) { val t = Vec.dist2(data(p1), data(idx(i))); if (t > best) { best = t; p2 = idx(i) }; i += 1 }
        // Partition: closer-to-p1 block first (two-pointer, in place).
        var a = lo; var b = hi - 1
        while (a <= b) {
          val v = data(idx(a))
          if (Vec.dist2(v, data(p1)) <= Vec.dist2(v, data(p2))) a += 1
          else { val t = idx(a); idx(a) = idx(b); idx(b) = t; b -= 1 }
        }
        // Duplicate-heavy inputs can make the split degenerate; force a
        // median split so recursion always terminates.
        var mid = a
        if (mid == lo || mid == hi) mid = lo + n / 2
        val l = mk(lo, mid)
        val r = mk(mid, hi)
        new BallNode(id, pivot, radius, n, sum, l, r, null)
      }
    }

    val root = mk(0, data.length)
    new Built(root, nextId, leafCapacity)
  }

  def stats(root: BallNode): TreeStats = {
    var leaves = 0; var internals = 0; var depth = 0; var fill = 0L
    def walk(n: BallNode, h: Int): Unit = {
      if (h > depth) depth = h
      if (n.isLeaf) { leaves += 1; fill += n.count }
      else { internals += 1; walk(n.left, h + 1); walk(n.right, h + 1) }
    }
    walk(root, 1)
    TreeStats(depth, leaves, internals, fill.toDouble / math.max(1, leaves))
  }
}
