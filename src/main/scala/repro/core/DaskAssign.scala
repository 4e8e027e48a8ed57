package repro.core

/** One Dask-means assignment pass (the body of Algorithm 1's Assign),
  * shared by the serial [[DaskMeans]] loop and the per-partition operator
  * in `repro.spark.DistributedDaskMeans`.
  */
object DaskAssign {

  /** Run one assignment phase over `state` against `centroids`. With an
    * index, every node search (the 2-NN for Eq. 6) and point search (the
    * 1-NN after Eq. 4) runs over a candidate list inherited from its parent
    * node, next to the Eq. 7 bound: the root's list is the centroid index's
    * root, and each node that is neither kept by Eq. 5 nor batch-assigned
    * by Eq. 6 narrows its list for its children or points
    * ([[CentroidIndex.narrow]]). The lists hold every nearest 1/2, so the
    * assignments are those of root-down searches; only the distance count
    * differs. The distance to the current centroid that Eq. 4/5 measured
    * seeds the search, which does not measure it again. The lists live in
    * `state.candidates`; the phase allocates two result queues, one for
    * node searches and one for point searches, and nothing per search.
    *
    * @param cb     inter bounds per centroid (Eq. 3); pass null to disable
    *               the Eq. 4/5 checks (the NoInB ablation)
    * @param index  centroid index for this iteration; pass null for linear
    *               centroid scans (the NokNN ablation)
    * @return the number of point-iterations assigned in batch or kept by a
    *         bound ("pruned vectors")
    */
  def step(
      state: TreeAssignmentState,
      centroids: Array[Array[Double]],
      cb: Array[Double],
      index: CentroidIndex,
      counter: DistanceCounter,
  ): Long = {
    val k = centroids.length
    val data = state.data
    val idx = state.tree.idx
    var pruned = 0L

    if (k == 1) {
      state.batchAssign(state.tree.root, 0)
      return state.tree.root.count.toLong
    }

    val nodeBest = new Best2(Double.PositiveInfinity)
    val pointBest = new Best2(Double.PositiveInfinity)
    val lists = if (index != null) state.candidates else null

    // [from, until): the search's candidate list in `lists`, unused without an index.
    def assignPoint(p: Int, ub: Double, from: Int, until: Int): Unit = {
      val prev = state.assignments(p)
      var seedDist = -1.0
      if (prev >= 0) {
        seedDist = counter.dist(data(p), centroids(prev))
        if (cb != null && seedDist < cb(prev) / 2) { pruned += 1; return } // Eq. 4
      }
      val n1 =
        if (index != null) index.nearestIn(data(p), 1, ub, pointBest, prev, seedDist, lists, from, until).i1
        else counter.nearest2(data(p), centroids, prev, seedDist).i1
      state.assignPoint(p, n1)
    }

    def assignNode(node: BallNode, ub: Double, from: Int, until: Int): Unit = {
      val prev = state.owner(node)
      var seedDist = -1.0
      if (prev >= 0) {
        seedDist = counter.dist(node.pivot, centroids(prev))
        if (cb != null && seedDist + node.radius < cb(prev) / 2) { // Eq. 5
          pruned += node.count
          return
        }
      }
      val b =
        if (index != null) index.nearestIn(node.pivot, 2, ub, nodeBest, prev, seedDist, lists, from, until)
        else counter.nearest2(node.pivot, centroids, prev, seedDist)
      if (b.d2 - b.d1 > 2 * node.radius) { // Eq. 6
        state.batchAssign(node, b.i1)
        pruned += node.count
      } else if (node.isLeaf) {
        state.pushDown(node)()
        val pointUb = b.d1 + node.radius
        val end = if (index != null) index.narrow(lists, from, until, b.d1 + 2 * node.radius) else until
        var i = node.start
        while (i < node.end) { assignPoint(idx(i), pointUb, until, end); i += 1 }
      } else {
        state.pushDown(node)()
        // Eq. 7: inherited bound and list, taken before the recursion reuses `nodeBest`.
        val childUb = b.d2 + node.radius
        val end = if (index != null) index.narrow(lists, from, until, b.d2 + 2 * node.radius) else until
        assignNode(node.left, childUb, until, end)
        assignNode(node.right, childUb, until, end)
      }
    }

    val rootEnd = if (index != null) lists.bind(index) else 0
    assignNode(state.tree.root, Double.PositiveInfinity, 0, rootEnd)
    if (index != null) lists.unbind()
    pruned
  }

  /** Inter bounds cb[j] for all centroids via bounded 2-NN over the
    * centroid index (Algorithm 1 lines 6–9). `prevCb`/`drifts` feed the
    * Eq. 9 upper bound; pass `first = true` on the first iteration. Each
    * search is seeded with c_j itself at distance 0, which it does not
    * measure. `prevCb` (length k) is overwritten in place with the new
    * bounds and returned.
    */
  def interBounds(
      centroids: Array[Array[Double]],
      index: CentroidIndex,
      first: Boolean,
      prevCb: Array[Double],
      drifts: Array[Double],
      counter: DistanceCounter,
  ): Array[Double] = {
    val k = centroids.length
    val cb = prevCb // cb(j) replaces prevCb(j) only after the Eq. 9 bound has read it
    if (k == 1) { cb(0) = Double.PositiveInfinity; return cb }
    val maxDrift = KMeans.maxDrift(drifts)
    val best = new Best2(Double.PositiveInfinity)
    var j = 0
    while (j < k) {
      cb(j) =
        if (index == null) counter.nearest2(centroids(j), centroids, skip = j).d2
        else {
          val ub = if (first) Double.PositiveInfinity else prevCb(j) + drifts(j) + maxDrift // Eq. 9
          index.nearest(centroids(j), 2, ub, best, seedId = j, seedDist = 0.0).d2
        }
      j += 1
    }
    cb
  }
}
