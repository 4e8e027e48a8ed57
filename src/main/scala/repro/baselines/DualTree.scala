package repro.baselines

import repro.core._
import repro.estimator.MemoryEstimator

/** Dual-tree k-means [50] (Curtin-style, simplified): Hamerly's single
  * upper/lower bound lifted onto a Ball-tree over the points, with bounds
  * maintained for *both* nodes and points across iterations (adjusted by
  * centroid drifts), and whole nodes assigned in batch. Unlike Dask-means
  * it has no centroid index: a node that fails its bound check scans all k
  * centroids — the O(k) behaviour the paper criticises at large k.
  *
  * Simplification vs [50]: centroid grouping for batch centroid pruning is
  * omitted (the node/point bound structure, batch assignment, and
  * memory profile — two bounds per node and per point — are preserved).
  * The point tree's leaf capacity is fixed at 8.
  */
final class DualTree extends KMeansAlgo {
  import DualTree.LeafCapacity

  override def name: String = "Dual-tree"

  override def extraMemoryFloats(n: Long, k: Long, d: Long): Long =
    MemoryEstimator.indexFloats(n, LeafCapacity.toLong, d) + 3L * (4 * n / LeafCapacity) + 4L * n

  override protected def start(
      data: Array[Array[Double]],
      k: Int,
      init: Array[Array[Double]],
      counter: DistanceCounter,
  ): KMeansAlgo.Run = new KMeansAlgo.Run {
    private val n = data.length
    private val tree = BallTree.build(data, LeafCapacity)
    private val state = new TreeAssignmentState(data, tree, k)
    private val nodeUb = new Array[Double](tree.nodeCount)
    private val nodeLb = new Array[Double](tree.nodeCount)
    private val nodeVer = new Array[Int](tree.nodeCount)
    private val u = new Array[Double](n)
    private val l = new Array[Double](n)
    private val pVer = new Array[Int](n)
    private val best = new Best2(Double.PositiveInfinity)
    // cumulative drift per centroid by version; version v = centroids after
    // v refinements, cum(v)(j) = Σ_{τ≤v} δ_τ(j)
    private val cum = scala.collection.mutable.ArrayBuffer(new Array[Double](k))
    private val cumMax = scala.collection.mutable.ArrayBuffer(0.0)

    override def refine(centroids: Array[Array[Double]], drifts: Array[Double]): Array[Array[Double]] =
      state.refine(centroids, drifts)

    override def assignments: Array[Int] = state.materialize()

    override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
      val now = it // current centroid version
      // Extend the cumulative drifts by the last refine's.
      if (now > 0) {
        val nextCum = new Array[Double](k)
        var j = 0
        while (j < k) { nextCum(j) = cum(now - 1)(j) + drifts(j); j += 1 }
        cum += nextCum
        cumMax += (cumMax(now - 1) + KMeans.maxDrift(drifts))
      }
      var pruned = 0L

      def adjUb(ub: Double, c: Int, ver: Int): Double = ub + (cum(now)(c) - cum(ver)(c))
      def adjLb(lb: Double, ver: Int): Double = lb - (cumMax(now) - cumMax(ver))

      def visitLeafPoint(p: Int): Unit = {
        val a0 = state.assignments(p)
        if (a0 >= 0) {
          u(p) = adjUb(u(p), a0, pVer(p)); l(p) = adjLb(l(p), pVer(p)); pVer(p) = now
          if (u(p) <= l(p)) { pruned += 1; return }
          u(p) = counter.dist(data(p), centroids(a0)) // tighten
          if (u(p) <= l(p)) { pruned += 1; return }
        }
        val b = counter.nearest2(data(p), centroids, best)
        state.assignPoint(p, b.i1)
        u(p) = b.d1; l(p) = b.d2; pVer(p) = now
      }

      def visit(node: BallNode): Unit = {
        val id = node.id
        val c = state.owner(node)
        if (c >= 0) {
          nodeUb(id) = adjUb(nodeUb(id), c, nodeVer(id))
          nodeLb(id) = adjLb(nodeLb(id), nodeVer(id))
          nodeVer(id) = now
          if (nodeUb(id) + node.radius < nodeLb(id) - node.radius) {
            pruned += node.count
            return // whole node keeps its assignment
          }
        }
        val dA = if (c >= 0) counter.dist(node.pivot, centroids(c)) else 0.0
        val b = counter.nearest2(node.pivot, centroids, best, c, dA)
        if (b.d2 - b.d1 > 2 * node.radius) {
          state.batchAssign(node, b.i1)
          nodeUb(id) = b.d1; nodeLb(id) = b.d2; nodeVer(id) = now
          pruned += node.count
          return
        }
        if (c >= 0) {
          // keep the marker's bounds fresh for the push-down below
          nodeUb(id) = dA; nodeLb(id) = if (b.i1 == c) b.d2 else b.d1; nodeVer(id) = now
        }
        if (node.isLeaf) {
          state.pushDown(node)(onPoint = p => {
            u(p) = nodeUb(id) + node.radius
            l(p) = nodeLb(id) - node.radius
            pVer(p) = now
          })
          var i = node.start
          while (i < node.end) { visitLeafPoint(tree.idx(i)); i += 1 }
        } else {
          state.pushDown(node)(onChild = ch => {
            nodeUb(ch.id) = nodeUb(id) + node.radius
            nodeLb(ch.id) = nodeLb(id) - node.radius
            nodeVer(ch.id) = now
          })
          visit(node.left)
          visit(node.right)
        }
      }

      if (k == 1) { state.batchAssign(tree.root, 0); pruned += n }
      else visit(tree.root)
      pruned
    }
  }
}

object DualTree {
  private val LeafCapacity = 8
}
