package repro.core

/** Ball-tree over the k cluster centroids, rebuilt each iteration (§IV-A).
  *
  * Supports the paper's bounded 1-/2-nearest-neighbour searches
  * (Algorithm 1, function kNN): the result queue H is initialised to the
  * caller-supplied upper bound `ub` (inherited from a parent node, Eq. 7, or
  * from drifts, Eq. 9), and a centroid node N_C is pruned when
  * ‖q − N_C.p*‖ − N_C.r exceeds the current H[k] (Eq. 8).
  *
  * [[nearest]] searches from the root. [[nearestIn]] searches a candidate
  * list instead: entries that are centroid-tree nodes or single centroids
  * and that together hold every centroid the query can have as a nearest
  * 1/2. [[narrow]] derives a point-tree node's children's (or points')
  * list from the node's own list and the distances its search recorded, so
  * a traversal hands candidates down the point tree as well as the Eq. 7
  * bound (the "filtering" of Kanungo et al., TPAMI 2002). The lists are
  * one growable stack of entries (a node's preorder id ≥ 0, or ~c for the
  * single centroid c); entry 0 is the root list, the root's id 0. The index
  * also keeps what its last search met, so it serves one search at a time.
  *
  * [[rebuild]] builds the tree over the next iteration's centroids into the
  * same index, so a run holds one index (the serial run, the Spark driver
  * and each Spark partition alike) and, once the tree has reached its
  * largest node count, an iteration allocates nothing for it or its lists.
  * The rebuilt tree is the one a fresh index over those centroids would
  * hold, node for node and bit for bit.
  *
  * The tree's leaf capacity is min(f, [[CentroidIndex.MaxLeafCapacity]]):
  * f is sized for the memory of the point tree (Eq. 12), while a search
  * here scans every centroid of a leaf it reaches, so smaller leaves let
  * Eq. 8 prune more. Results are the exact nearest 1/2 whatever the shape.
  */
final class CentroidIndex(
    initial: Array[Array[Double]],
    leafCapacity: Int,
    counter: DistanceCounter,
) {
  private var cs: Array[Array[Double]] = initial

  val built: BallTree.Built =
    BallTree.build(initial, math.max(2, math.min(leafCapacity, CentroidIndex.MaxLeafCapacity)))

  private var entries: Array[Int] = new Array[Int](64) // entries(0) = 0, the root list
  private var top: Int = 0
  private var nodeDist: Array[Double] = new Array[Double](built.nodeCount)
  private var measuredStamp: Array[Int] = new Array[Int](built.nodeCount)
  private var openedStamp: Array[Int] = new Array[Int](built.nodeCount)
  private val centroidDist: Array[Double] = new Array[Double](initial.length)
  private var stamp: Int = 0

  // The running search: query, k̂, queue, and the seed with its known distance.
  private var q: Array[Double] = null
  private var want: Int = 1
  private var out: Best2 = null
  private var seed: Int = -1
  private var seedDist: Double = 0.0

  /** Rebuilds the tree over `centroids` (as many, of the same dimension, as
    * the index was made with) in place and returns this index. The nodes of
    * the previous tree are overwritten. Allocates nothing unless the new
    * tree has more nodes than every earlier one; the node arrays then grow
    * to its node count + 25%.
    */
  def rebuild(centroids: Array[Array[Double]]): CentroidIndex = {
    if (centroids.length != cs.length || centroids(0).length != cs(0).length)
      throw new IllegalArgumentException(
        s"an index over ${cs.length} centroids of dimension ${cs(0).length}, " +
          s"rebuilt over ${centroids.length} of dimension ${centroids(0).length}")
    cs = centroids
    built.buildFrom(centroids)
    val nodes = built.nodeCount
    if (nodeDist.length < nodes) {
      val size = nodes + nodes / 4
      nodeDist = new Array[Double](size); measuredStamp = new Array[Int](size); openedStamp = new Array[Int](size)
    }
    this
  }

  /** The `want` ∈ {1, 2} nearest centroids of q, written into the caller's
    * queue `out`, which is reset to `ub` first and returned: the search of
    * [[nearestIn]] over the root list. `ub` must upper-bound the true
    * `want`-NN distance; if it turns out not to, the search runs again into
    * the same queue with an infinite bound and without the seed.
    * `seedId`/`seedDist` optionally pre-populate the queue with an already
    * computed candidate; `seedDist` must be ‖q − c_seedId‖ as [[Vec.dist]]
    * computes it, and both searches use it instead of measuring the seed
    * again. With `want` = 1 only `i1`/`d1` are meaningful. With `want` = 2
    * and k = 1 the queue never fills, so the result has `i2` = −1,
    * `d2` = ∞. A search allocates nothing.
    */
  def nearest(q: Array[Double], want: Int, ub: Double, out: Best2, seedId: Int = -1, seedDist: Double = 0.0): Best2 =
    nearestIn(q, want, ub, out, seedId, seedDist, 0, 1)

  /** [[nearest]] over the candidate list `[from, until)` of the index's
    * stack instead of the root; the list must hold every centroid that can
    * be a nearest `want` of q. The search computes each entry's distance,
    * visits the node entry with the smallest lower bound ‖q − N_C.p*‖ − N_C.r
    * first and descends with Eq. 8. A one-entry list of a node is searched
    * as that node's subtree, without its pivot distance, so the root list
    * [0, 1) searches the whole tree. Records every distance it computes for
    * the next [[narrow]]. Allocates nothing.
    */
  def nearestIn(q: Array[Double], want: Int, ub: Double, out: Best2, seedId: Int, seedDist: Double, from: Int, until: Int)
      : Best2 = {
    this.q = q; this.want = want; this.out = out; seed = seedId; this.seedDist = seedDist
    if (stamp == Int.MaxValue) {
      java.util.Arrays.fill(measuredStamp, 0); java.util.Arrays.fill(openedStamp, 0); stamp = 0
    }
    stamp += 1
    out.reset(ub)
    if (seedId >= 0 && seedDist < ub) out.insert(seedId, seedDist)
    searchList(from, until)
    if ((if (want == 1) out.i1 else out.i2) < 0) {
      out.reset(Double.PositiveInfinity)
      searchList(from, until)
    }
    out
  }

  @inline private def threshold: Double = if (want == 1) out.d1 else out.d2

  /** Centroid c's distance, the seed's known one or a counted one: recorded,
    * and inserted into the queue if below its k̂-th.
    */
  private def measure(c: Int): Unit = {
    val d = if (c == seed) seedDist else counter.dist(q, cs(c))
    centroidDist(c) = d
    if (d < threshold) out.insert(c, d)
  }

  /** Counts and records the distance to `node`'s pivot, and returns it. */
  private def measure(node: BallNode): Double = {
    val d = counter.dist(q, node.pivot)
    nodeDist(node.id) = d
    measuredStamp(node.id) = stamp
    d
  }

  @inline private[core] def measured(id: Int): Boolean = measuredStamp(id) == stamp
  @inline private[core] def opened(id: Int): Boolean = openedStamp(id) == stamp

  private def searchList(from: Int, until: Int): Unit = {
    if (until - from == 1 && entries(from) >= 0) {
      search(built.node(entries(from)))
      return
    }
    var first = -1
    var firstLb = Double.PositiveInfinity
    var i = from
    while (i < until) {
      val e = entries(i)
      if (e < 0) measure(~e)
      else {
        val node = built.node(e)
        val lb = measure(node) - node.radius
        if (lb < firstLb) { firstLb = lb; first = i }
      }
      i += 1
    }
    if (first < 0) return
    visit(built.node(entries(first)), nodeDist(entries(first)))
    i = from
    while (i < until) {
      val e = entries(i)
      if (e >= 0 && i != first) visit(built.node(e), nodeDist(e))
      i += 1
    }
  }

  /** Opens `node` and descends below it with Eq. 8 pruning. */
  private def search(node: BallNode): Unit = {
    openedStamp(node.id) = stamp
    if (node.isLeaf) {
      var i = node.start
      while (i < node.end) { measure(built.idx(i)); i += 1 }
    } else {
      val dl = measure(node.left)
      val dr = measure(node.right)
      if (dl <= dr) { visit(node.left, dl); visit(node.right, dr) }
      else { visit(node.right, dr); visit(node.left, dl) }
    }
  }

  private def visit(node: BallNode, d: Double): Unit =
    if (d - node.radius < threshold) search(node)

  /** Writes the list for the children (`bound` = d2 + 2R) or the points
    * (`bound` = d1 + 2R) of a point-tree node with pivot p and radius R
    * whose search over `[from, until)` was the index's last one and
    * returned d1, d2. The new list starts at `until` (≥ 1, so the root list
    * stays); returns its end. It uses only the distances that search
    * recorded and computes none:
    *
    *  - an entry whose lower bound (‖p − N_C.p*‖ − N_C.r, or ‖p − c‖ for a
    *    centroid) exceeds `bound`·(1 + [[CentroidIndex.NarrowMargin]]) is
    *    dropped;
    *  - a node the search did not open is kept whole;
    *  - an opened leaf is replaced by its surviving centroids, and an opened
    *    internal node by its children, each kept by the same rules.
    *
    * Every child pivot and point of the node lies within R of p, and its
    * nearest 1/2 within d2 + R (d1 + R), so within `bound` of p: the new
    * list holds them all. List entries never overlap, so a node is opened
    * exactly when its children were measured or its leaf scanned.
    */
  def narrow(from: Int, until: Int, bound: Double): Int = {
    val limit = bound * (1 + CentroidIndex.NarrowMargin)
    top = until
    var i = from
    while (i < until) { keep(entries(i), limit); i += 1 }
    top
  }

  private def keep(e: Int, limit: Double): Unit =
    if (e < 0) { if (centroidDist(~e) <= limit) push(e) } // a listed centroid is always measured
    else {
      val node = built.node(e)
      if (measured(e) && nodeDist(e) - node.radius > limit) ()
      else if (!opened(e)) push(e)
      else if (node.isLeaf) {
        var i = node.start
        while (i < node.end) {
          val c = built.idx(i)
          if (centroidDist(c) <= limit) push(~c)
          i += 1
        }
      } else { keep(node.left.id, limit); keep(node.right.id, limit) }
    }

  private def push(e: Int): Unit = {
    if (top == entries.length) entries = java.util.Arrays.copyOf(entries, 2 * top)
    entries(top) = e
    top += 1
  }

  /** A copy of the stack's entries `[from, until)`. */
  private[core] def list(from: Int, until: Int): Array[Int] = java.util.Arrays.copyOfRange(entries, from, until)
}

object CentroidIndex {

  /** Largest leaf of the centroid tree. Leaves of 4–8 centroids computed
    * within 6% of the fewest distances on the T-drive and Argo-PC
    * stand-ins, against 1.6–1.8× as many at f = 30.
    */
  val MaxLeafCapacity: Int = 8

  /** Relative slack on [[CentroidIndex.narrow]]'s bound, so that rounding
    * in the distances it compares never drops a true nearest centroid.
    */
  val NarrowMargin: Double = 1e-12

  /** The index of a run's next iteration: `index` rebuilt over `centroids`
    * in place, or a new index when the run has none yet (`index` null).
    */
  def rebuildOrNew(index: CentroidIndex, centroids: Array[Array[Double]], leafCapacity: Int, counter: DistanceCounter)
      : CentroidIndex =
    if (index == null) new CentroidIndex(centroids, leafCapacity, counter) else index.rebuild(centroids)
}
