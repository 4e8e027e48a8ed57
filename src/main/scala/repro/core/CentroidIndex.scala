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
  * bound (the "filtering" of Kanungo et al., TPAMI 2002). The lists and
  * the recorded distances live in a run-owned [[CandidateLists]]; the index
  * is read-only once built.
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

  @inline private def threshold(b: Best2, want: Int): Double = if (want == 1) b.d1 else b.d2

  /** Descends below `node` with Eq. 8 pruning. With `lists` non-null it
    * records every distance it computes, for [[narrow]].
    */
  private def search(b: Best2, want: Int, q: Array[Double], node: BallNode, lists: CandidateLists): Unit =
    if (node.isLeaf) {
      var i = 0
      while (i < node.points.length) {
        val ci = node.points(i)
        val d = counter.dist(q, centroids(ci))
        if (lists != null) lists.recordCentroid(ci, d)
        if (d < threshold(b, want)) b.insert(ci, d)
        i += 1
      }
    } else {
      val dl = counter.dist(q, node.left.pivot)
      val dr = counter.dist(q, node.right.pivot)
      if (lists != null) { lists.recordNode(node.left.id, dl); lists.recordNode(node.right.id, dr) }
      if (dl <= dr) { visit(b, want, q, node.left, dl, lists); visit(b, want, q, node.right, dr, lists) }
      else { visit(b, want, q, node.right, dr, lists); visit(b, want, q, node.left, dl, lists) }
    }

  private def visit(b: Best2, want: Int, q: Array[Double], node: BallNode, d: Double, lists: CandidateLists): Unit =
    if (d - node.radius < threshold(b, want)) search(b, want, q, node, lists)

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
    search(out, want, q, built.root, null)
    if ((if (want == 1) out.i1 else out.i2) < 0) search(out.reset(Double.PositiveInfinity), want, q, built.root, null)
    out
  }

  /** [[nearest]] over the candidate list `lists.entries[from, until)`
    * instead of the root; the list must hold every centroid that can be a
    * nearest `want` of q. The search computes each entry's distance, visits
    * the node entry with the smallest lower bound ‖q − N_C.p*‖ − N_C.r
    * first and descends with Eq. 8 as [[nearest]] does. A one-entry list
    * of a node is searched as that node's subtree, without its pivot
    * distance, so the root list's search is [[nearest]]'s. Records every
    * distance it computes in `lists`, which [[CandidateLists.bind]] must
    * have bound to this index. Allocates nothing.
    */
  def nearestIn(
      q: Array[Double],
      want: Int,
      ub: Double,
      out: Best2,
      seedId: Int,
      seedDist: Double,
      lists: CandidateLists,
      from: Int,
      until: Int,
  ): Best2 = {
    if (lists.index ne this) throw new IllegalArgumentException("candidate lists bound to another index")
    out.reset(ub)
    if (seedId >= 0 && seedDist < ub) out.insert(seedId, seedDist)
    lists.newSearch()
    searchList(out, want, q, lists, from, until)
    if ((if (want == 1) out.i1 else out.i2) < 0) searchList(out.reset(Double.PositiveInfinity), want, q, lists, from, until)
    out
  }

  private def searchList(b: Best2, want: Int, q: Array[Double], lists: CandidateLists, from: Int, until: Int): Unit = {
    val entries = lists.entries
    if (until - from == 1 && entries(from) >= 0) { search(b, want, q, lists.nodes(entries(from)), lists); return }
    var first = -1
    var firstLb = Double.PositiveInfinity
    var i = from
    while (i < until) {
      val e = entries(i)
      if (e < 0) {
        val c = ~e
        val d = counter.dist(q, centroids(c))
        lists.recordCentroid(c, d)
        if (d < threshold(b, want)) b.insert(c, d)
      } else {
        val node = lists.nodes(e)
        val d = counter.dist(q, node.pivot)
        lists.recordNode(e, d)
        if (d - node.radius < firstLb) { firstLb = d - node.radius; first = i }
      }
      i += 1
    }
    if (first < 0) return
    visit(b, want, q, lists.nodes(entries(first)), lists.nodeDist(entries(first)), lists)
    i = from
    while (i < until) {
      val e = entries(i)
      if (e >= 0 && i != first) visit(b, want, q, lists.nodes(e), lists.nodeDist(e), lists)
      i += 1
    }
  }

  /** Writes the list for the children (`bound` = d2 + 2R) or the points
    * (`bound` = d1 + 2R) of a point-tree node with pivot p and radius R
    * whose search over `lists.entries[from, until)` was the last one on
    * `lists` and returned d1, d2. The new list starts at `until`; returns
    * its end. It uses only the distances that search recorded and computes
    * none:
    *
    *  - an entry whose lower bound (‖p − N_C.p*‖ − N_C.r, or ‖p − c‖ for a
    *    centroid) exceeds `bound`·(1 + [[CentroidIndex.NarrowMargin]]) is
    *    dropped;
    *  - a node whose two children the search measured is opened, and a
    *    leaf it scanned is replaced by its surviving centroids;
    *  - every other entry is kept whole.
    *
    * Every child pivot and point of the node lies within R of p, and its
    * nearest 1/2 within d2 + R (d1 + R), so within `bound` of p: the new
    * list holds them all.
    */
  def narrow(lists: CandidateLists, from: Int, until: Int, bound: Double): Int = {
    val limit = bound * (1 + CentroidIndex.NarrowMargin)
    lists.top = until
    var i = from
    while (i < until) { keep(lists, lists.entries(i), limit); i += 1 }
    lists.top
  }

  private def keep(lists: CandidateLists, e: Int, limit: Double): Unit =
    if (e < 0) { if (lists.centroidDist(~e) <= limit) lists.push(e) } // a listed centroid is always measured
    else {
      val node = lists.nodes(e)
      if (lists.measuredNode(e) && lists.nodeDist(e) - node.radius > limit) ()
      else if (node.isLeaf) {
        // Lists are disjoint, so the leaf's centroids were measured only if the search scanned it.
        if (lists.measuredCentroid(node.points(0))) {
          var i = 0
          while (i < node.points.length) {
            val c = node.points(i)
            if (lists.centroidDist(c) <= limit) lists.push(~c)
            i += 1
          }
        } else lists.push(e)
      } else if (lists.measuredNode(node.left.id) && lists.measuredNode(node.right.id)) {
        keep(lists, node.left.id, limit)
        keep(lists, node.right.id, limit)
      } else lists.push(e)
    }
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
}

/** Run-owned scratch of the candidate lists that [[CentroidIndex.nearestIn]]
  * searches and [[CentroidIndex.narrow]] writes: one growable stack of list
  * entries (a centroid-tree node id ≥ 0, or ~c for the single centroid c),
  * on which a node's children share one list written after the node's own,
  * and the distances the last search computed, marked current by a stamp.
  * Sized by k and the index's node count, and grown only when a list or an
  * index outgrows it, so steps after the first allocate nothing.
  */
final class CandidateLists(k: Int) {
  private[core] var entries: Array[Int] = new Array[Int](64)
  private[core] var top: Int = 0
  private[core] var index: CentroidIndex = null
  private[core] var nodes: Array[BallNode] = new Array[BallNode](0)
  private[core] var nodeDist: Array[Double] = new Array[Double](0)
  private var nodeStamp: Array[Int] = new Array[Int](0)
  private[core] val centroidDist: Array[Double] = new Array[Double](k)
  private val centroidStamp: Array[Int] = new Array[Int](k)
  private var stamp: Int = 0

  /** Binds the lists to `index` for one assignment pass and writes the
    * root list, the centroid tree's root, at 0. Returns its end, 1.
    */
  def bind(index: CentroidIndex): Int = {
    if (index.centroids.length > k) // not `require`: its message closure would be allocated on every call
      throw new IllegalArgumentException(s"an index over ${index.centroids.length} centroids, lists for $k")
    val n = index.built.nodeCount
    if (nodes.length < n) {
      val size = n + n / 4
      nodes = new Array[BallNode](size); nodeDist = new Array[Double](size); nodeStamp = new Array[Int](size)
    }
    fill(index.built.root)
    this.index = index
    entries(0) = index.built.root.id
    1
  }

  /** Drops the references to the bound index's tree. */
  def unbind(): Unit = { java.util.Arrays.fill(nodes.asInstanceOf[Array[AnyRef]], null); index = null }

  private def fill(node: BallNode): Unit = {
    nodes(node.id) = node
    if (!node.isLeaf) { fill(node.left); fill(node.right) }
  }

  private[core] def newSearch(): Unit = {
    if (stamp == Int.MaxValue) {
      java.util.Arrays.fill(nodeStamp, 0); java.util.Arrays.fill(centroidStamp, 0); stamp = 0
    }
    stamp += 1
  }

  private[core] def push(e: Int): Unit = {
    if (top == entries.length) entries = java.util.Arrays.copyOf(entries, 2 * top)
    entries(top) = e
    top += 1
  }

  @inline private[core] def recordNode(id: Int, d: Double): Unit = { nodeDist(id) = d; nodeStamp(id) = stamp }
  @inline private[core] def recordCentroid(c: Int, d: Double): Unit = { centroidDist(c) = d; centroidStamp(c) = stamp }
  @inline private[core] def measuredNode(id: Int): Boolean = nodeStamp(id) == stamp
  @inline private[core] def measuredCentroid(c: Int): Boolean = centroidStamp(c) == stamp
}
