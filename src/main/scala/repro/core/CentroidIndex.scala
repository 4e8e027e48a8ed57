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
  * the recorded distances live in the index's own [[CandidateLists]], so an
  * index serves one search at a time; [[nearest]] is the search over the
  * root list.
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

  /** The search scratch; entry 0 is the root list, which holds the root's
    * preorder id, 0, for the life of the index.
    */
  private[core] val lists: CandidateLists = new CandidateLists(initial.length, built.nodeCount)

  /** Rebuilds the tree over `centroids` (as many, of the same dimension, as
    * the index was made with) in place and returns this index. The nodes of
    * the previous tree are overwritten. Allocates nothing unless the new
    * tree has more nodes than every earlier one; the candidate lists then
    * grow with it.
    */
  def rebuild(centroids: Array[Array[Double]]): CentroidIndex = {
    if (centroids.length != cs.length || centroids(0).length != cs(0).length)
      throw new IllegalArgumentException(
        s"an index over ${cs.length} centroids of dimension ${cs(0).length}, " +
          s"rebuilt over ${centroids.length} of dimension ${centroids(0).length}")
    cs = centroids
    built.buildFrom(centroids)
    lists.fit(built.nodeCount)
    this
  }

  @inline private def threshold(b: Best2, want: Int): Double = if (want == 1) b.d1 else b.d2

  /** Descends below `node` with Eq. 8 pruning, marking every leaf it scans
    * and recording every distance it meets, for [[narrow]]. The search's
    * seed centroid takes its known distance `seedDist` instead of a
    * computed one.
    */
  private def search(b: Best2, want: Int, q: Array[Double], node: BallNode, seed: Int, seedDist: Double): Unit =
    if (node.isLeaf) {
      lists.markScanned(node.id)
      val idx = built.idx
      var i = node.start
      while (i < node.end) {
        val ci = idx(i)
        val d = if (ci == seed) seedDist else counter.dist(q, cs(ci))
        lists.recordCentroid(ci, d)
        if (d < threshold(b, want)) b.insert(ci, d)
        i += 1
      }
    } else {
      val dl = counter.dist(q, node.left.pivot)
      val dr = counter.dist(q, node.right.pivot)
      lists.recordNode(node.left.id, dl); lists.recordNode(node.right.id, dr)
      if (dl <= dr) {
        visit(b, want, q, node.left, dl, seed, seedDist); visit(b, want, q, node.right, dr, seed, seedDist)
      } else {
        visit(b, want, q, node.right, dr, seed, seedDist); visit(b, want, q, node.left, dl, seed, seedDist)
      }
    }

  private def visit(b: Best2, want: Int, q: Array[Double], node: BallNode, d: Double, seed: Int, seedDist: Double): Unit =
    if (d - node.radius < threshold(b, want)) search(b, want, q, node, seed, seedDist)

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

  /** [[nearest]] over the candidate list `lists.entries[from, until)`
    * instead of the root; the list must hold every centroid that can be a
    * nearest `want` of q. The search computes each entry's distance, visits
    * the node entry with the smallest lower bound ‖q − N_C.p*‖ − N_C.r
    * first and descends with Eq. 8. A one-entry list of a node is searched
    * as that node's subtree, without its pivot distance, so the root list
    * [0, 1) searches the whole tree. Records every distance it computes for
    * the next [[narrow]]. Allocates nothing.
    */
  def nearestIn(q: Array[Double], want: Int, ub: Double, out: Best2, seedId: Int, seedDist: Double, from: Int, until: Int)
      : Best2 = {
    out.reset(ub)
    if (seedId >= 0 && seedDist < ub) out.insert(seedId, seedDist)
    lists.newSearch()
    searchList(out, want, q, from, until, seedId, seedDist)
    if ((if (want == 1) out.i1 else out.i2) < 0)
      searchList(out.reset(Double.PositiveInfinity), want, q, from, until, seedId, seedDist)
    out
  }

  private def searchList(b: Best2, want: Int, q: Array[Double], from: Int, until: Int, seed: Int, seedDist: Double): Unit = {
    val entries = lists.entries
    if (until - from == 1 && entries(from) >= 0) {
      search(b, want, q, built.node(entries(from)), seed, seedDist)
      return
    }
    var first = -1
    var firstLb = Double.PositiveInfinity
    var i = from
    while (i < until) {
      val e = entries(i)
      if (e < 0) {
        val c = ~e
        val d = if (c == seed) seedDist else counter.dist(q, cs(c))
        lists.recordCentroid(c, d)
        if (d < threshold(b, want)) b.insert(c, d)
      } else {
        val node = built.node(e)
        val d = counter.dist(q, node.pivot)
        lists.recordNode(e, d)
        if (d - node.radius < firstLb) { firstLb = d - node.radius; first = i }
      }
      i += 1
    }
    if (first < 0) return
    visit(b, want, q, built.node(entries(first)), lists.nodeDist(entries(first)), seed, seedDist)
    i = from
    while (i < until) {
      val e = entries(i)
      if (e >= 0 && i != first) visit(b, want, q, built.node(e), lists.nodeDist(e), seed, seedDist)
      i += 1
    }
  }

  /** Writes the list for the children (`bound` = d2 + 2R) or the points
    * (`bound` = d1 + 2R) of a point-tree node with pivot p and radius R
    * whose search over `lists.entries[from, until)` was the index's last
    * one and returned d1, d2. The new list starts at `until` (≥ 1, so the
    * root list stays); returns its end. It uses only the distances that
    * search recorded and computes none:
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
  def narrow(from: Int, until: Int, bound: Double): Int = {
    val limit = bound * (1 + CentroidIndex.NarrowMargin)
    lists.top = until
    var i = from
    while (i < until) { keep(lists.entries(i), limit); i += 1 }
    lists.top
  }

  private def keep(e: Int, limit: Double): Unit =
    if (e < 0) { if (lists.centroidDist(~e) <= limit) lists.push(e) } // a listed centroid is always measured
    else {
      val node = built.node(e)
      if (lists.measuredNode(e) && lists.nodeDist(e) - node.radius > limit) ()
      else if (node.isLeaf) {
        if (lists.scanned(node.id)) {
          var i = node.start
          while (i < node.end) {
            val c = built.idx(i)
            if (lists.centroidDist(c) <= limit) lists.push(~c)
            i += 1
          }
        } else lists.push(e)
      } else if (lists.measuredNode(node.left.id) && lists.measuredNode(node.right.id)) {
        keep(node.left.id, limit)
        keep(node.right.id, limit)
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

  /** The index of a run's next iteration: `index` rebuilt over `centroids`
    * in place, or a new index when the run has none yet (`index` null).
    */
  def rebuildOrNew(index: CentroidIndex, centroids: Array[Array[Double]], leafCapacity: Int, counter: DistanceCounter)
      : CentroidIndex =
    if (index == null) new CentroidIndex(centroids, leafCapacity, counter) else index.rebuild(centroids)
}

/** An index's scratch for the candidate lists that
  * [[CentroidIndex.nearestIn]] searches and [[CentroidIndex.narrow]]
  * writes: one growable stack of list entries (a centroid-tree node id ≥ 0,
  * or ~c for the single centroid c), on which a node's children share one
  * list written after the node's own, and the distances the last search
  * met. Entry 0 is the root list, the root's preorder id 0. A stamp marks
  * the node distances and the leaf scans of the last search; a centroid's
  * distance is read only when that search listed it or scanned its leaf.
  * Sized by k and the index's node count, and grown only when a list or
  * the index's tree outgrows it, so a run's steps after the first allocate
  * nothing.
  */
private[core] final class CandidateLists(k: Int, nodes: Int) {
  private[core] var entries: Array[Int] = new Array[Int](64)
  private[core] var top: Int = 0
  private[core] var nodeDist: Array[Double] = new Array[Double](nodes)
  private var nodeStamp: Array[Int] = new Array[Int](nodes)
  private var scanStamp: Array[Int] = new Array[Int](nodes)
  private[core] val centroidDist: Array[Double] = new Array[Double](k)
  private var stamp: Int = 0

  /** Grows the node arrays to hold a tree of `nodes` nodes. */
  private[core] def fit(nodes: Int): Unit =
    if (nodeDist.length < nodes) {
      val size = nodes + nodes / 4
      nodeDist = new Array[Double](size); nodeStamp = new Array[Int](size); scanStamp = new Array[Int](size)
    }

  private[core] def newSearch(): Unit = {
    if (stamp == Int.MaxValue) {
      java.util.Arrays.fill(nodeStamp, 0); java.util.Arrays.fill(scanStamp, 0); stamp = 0
    }
    stamp += 1
  }

  private[core] def push(e: Int): Unit = {
    if (top == entries.length) entries = java.util.Arrays.copyOf(entries, 2 * top)
    entries(top) = e
    top += 1
  }

  @inline private[core] def recordNode(id: Int, d: Double): Unit = { nodeDist(id) = d; nodeStamp(id) = stamp }
  @inline private[core] def recordCentroid(c: Int, d: Double): Unit = centroidDist(c) = d
  @inline private[core] def markScanned(id: Int): Unit = scanStamp(id) = stamp
  @inline private[core] def measuredNode(id: Int): Boolean = nodeStamp(id) == stamp
  @inline private[core] def scanned(id: Int): Boolean = scanStamp(id) == stamp
}
