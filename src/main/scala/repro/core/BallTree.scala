package repro.core

/** A node of a Ball-tree (Omohundro-style) over a set of spatial vectors.
  *
  * Every node stores the pivot `p*` (mean of the covered vectors), the
  * radius `r` bounding all covered vectors, the covered count `|N|` and the
  * running sum of covered vectors (so a whole node can be moved between
  * clusters in O(d), see §IV-B "dynamic sum vector"). A node covers the
  * vectors `idx[start, end)` of its tree's single index array
  * [[BallTree.Built.idx]]: a leaf's members are that range, in order, and
  * the children of a node split its range in two.
  *
  * Only the build in `repro.core` writes a node. A point tree is built once
  * and never rebuilt, so one tree can serve any number of runs at once; each
  * run keeps its cluster markers in a side array indexed by `id`
  * ([[TreeAssignmentState]]). A [[CentroidIndex]] rebuilds its tree in
  * place every iteration, into the same node objects: a node of an index,
  * with its `pivot` and `sum` arrays, stays valid only until the index's
  * next `rebuild`.
  *
  * @param id     preorder index, unique within one tree (for side arrays)
  * @param pivot  mean of all covered vectors
  * @param sum    componentwise sum of covered vectors
  */
final class BallNode private[core] (val id: Int, val pivot: Array[Double], val sum: Array[Double]) {
  private var r = 0.0
  private var l: BallNode = null
  private var rt: BallNode = null
  private var lo = 0
  private var hi = 0

  /** Max distance from `pivot` to a covered vector. */
  def radius: Double = r

  /** Left child, `null` iff leaf. */
  def left: BallNode = l

  /** Right child, `null` iff leaf. */
  def right: BallNode = rt

  /** First position of the node's range in its tree's `idx`. */
  def start: Int = lo

  /** End (exclusive) of the node's range in its tree's `idx`. */
  def end: Int = hi

  /** Number of covered vectors. */
  def count: Int = hi - lo

  def isLeaf: Boolean = l == null

  private[core] def set(radius: Double, left: BallNode, right: BallNode, start: Int, end: Int): Unit = {
    r = radius; l = left; rt = right; lo = start; hi = end
  }
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

  /** A built tree: its nodes, by preorder id, and the permutation `idx` of
    * the vectors' indices whose ranges the nodes cover.
    */
  final class Built private[core] (val leafCapacity: Int, val idx: Array[Int]) {
    private var pool = new Array[BallNode](4 * idx.length / leafCapacity + 1)
    private var size = 0

    def nodeCount: Int = size

    def root: BallNode = pool(0)

    /** The node with preorder id `id` < [[nodeCount]]. */
    def node(id: Int): BallNode = pool(id)

    /** Builds the tree over `data`, one vector per entry of `idx`, into this
      * tree's own nodes: node `id` of the new tree reuses the node object
      * and arrays of the old tree's node `id`, and the pool of nodes grows
      * only when the new tree has more nodes than any tree before it. The
      * tree is the one a fresh [[BallTree.build]] makes, bit for bit: `idx`
      * restarts from the identity, sums are zeroed and add the vectors in
      * `idx` order, and pivots scale them as `Vec.scale` does.
      */
    private[core] def buildFrom(data: Array[Array[Double]]): Unit = {
      var i = 0
      while (i < idx.length) { idx(i) = i; i += 1 }
      size = 0
      mk(data, 0, idx.length)
    }

    /** The next preorder slot, holding `d`-dimensional arrays. */
    private def slot(d: Int): BallNode = {
      val id = size
      if (id == pool.length) pool = java.util.Arrays.copyOf(pool, 2 * id)
      if (pool(id) == null) pool(id) = new BallNode(id, new Array[Double](d), new Array[Double](d))
      size += 1
      pool(id)
    }

    private def mk(data: Array[Array[Double]], lo: Int, hi: Int): BallNode = {
      val n = hi - lo
      val node = slot(data(idx(lo)).length)
      val sum = node.sum
      java.util.Arrays.fill(sum, 0.0)
      var i = lo
      while (i < hi) { Vec.addInto(sum, data(idx(i))); i += 1 }
      val pivot = Vec.scaleInto(node.pivot, sum, 1.0 / n)
      var radius = 0.0
      i = lo
      while (i < hi) { val t = Vec.dist(pivot, data(idx(i))); if (t > radius) radius = t; i += 1 }
      if (n <= leafCapacity) node.set(radius, null, null, lo, hi)
      else {
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
        val l = mk(data, lo, mid)
        val r = mk(data, mid, hi)
        node.set(radius, l, r, lo, hi)
      }
      node
    }
  }

  def build(data: Array[Array[Double]], leafCapacity: Int): Built = {
    require(data.nonEmpty, "cannot build a Ball-tree over an empty dataset")
    require(leafCapacity >= 2, s"leaf capacity must be >= 2, got $leafCapacity")
    val t = new Built(leafCapacity, new Array[Int](data.length))
    t.buildFrom(data)
    t
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
