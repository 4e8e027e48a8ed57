package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import scala.util.Random

class TreeAssignmentStateSpec extends AnyFunSuite {

  private def freshState(n: Int, k: Int, seed: Long): (Array[Array[Double]], TreeAssignmentState) = {
    val data = TestData.uniform(n, 3, seed)
    val tree = BallTree.build(data, 8)
    (data, new TreeAssignmentState(data, tree, k))
  }

  /** Recompute counts and sums from the materialised assignments and check
    * they agree with the incrementally maintained state.
    */
  private def checkConsistency(data: Array[Array[Double]], st: TreeAssignmentState): Unit = {
    val snapshotCounts = st.counts.clone()
    val snapshotSums = st.sums.map(_.clone())
    val a = st.materialize()
    val counts = new Array[Int](st.k)
    val sums = Array.fill(st.k)(new Array[Double](st.d))
    a.indices.foreach { i =>
      if (a(i) >= 0) { counts(a(i)) += 1; Vec.addInto(sums(a(i)), data(i)) }
    }
    (0 until st.k).foreach { j =>
      assert(counts(j) == snapshotCounts(j), s"count mismatch for cluster $j")
      sums(j).indices.foreach(i => assert(math.abs(sums(j)(i) - snapshotSums(j)(i)) < 1e-6))
    }
  }

  test("batchAssign of the root moves everything in one step") {
    val (data, st) = freshState(200, 4, 1)
    assert(st.batchAssign(st.tree.root, 2))
    assert(st.counts(2) == 200)
    checkConsistency(data, st)
  }

  test("batchAssign to the same cluster is a no-op") {
    val (_, st) = freshState(100, 3, 2)
    st.batchAssign(st.tree.root, 1)
    assert(!st.batchAssign(st.tree.root, 1))
    assert(st.counts(1) == 100)
  }

  test("pushDown materialises markers one level without changing totals") {
    val (data, st) = freshState(300, 5, 3)
    st.batchAssign(st.tree.root, 0)
    st.pushDown(st.tree.root)()
    assert(st.owner(st.tree.root) == -1)
    assert(st.owner(st.tree.root.left) == 0)
    assert(st.counts(0) == 300)
    checkConsistency(data, st)
  }

  test("mixed batch and point assignments stay consistent") {
    val (data, st) = freshState(400, 6, 4)
    val rnd = new Random(5)
    st.batchAssign(st.tree.root, 0)
    // descend two levels and scatter some nodes/points
    st.pushDown(st.tree.root)()
    val l = st.tree.root.left; val r = st.tree.root.right
    st.batchAssign(l, 1)
    st.pushDown(r)()
    if (!r.isLeaf) st.batchAssign(r.left, 2)
    checkConsistency(data, st)
    // now random point moves on a materialised leaf
    var leaf = l
    while (!leaf.isLeaf) { st.pushDown(leaf)(); leaf = leaf.left }
    st.pushDown(leaf)()
    leaf.points.foreach { p => st.assignPoint(p, rnd.nextInt(6)) }
    checkConsistency(data, st)
  }

  test("re-batch-assigning a scattered subtree works (frontier removal)") {
    val (data, st) = freshState(500, 4, 6)
    st.batchAssign(st.tree.root, 0)
    st.pushDown(st.tree.root)()
    st.batchAssign(st.tree.root.left, 1)
    st.batchAssign(st.tree.root.right, 2)
    // now re-assign the whole root in one batch: must unwind the frontier
    st.batchAssign(st.tree.root, 3)
    assert(st.counts(3) == 500 && st.counts(0) == 0 && st.counts(1) == 0 && st.counts(2) == 0)
    checkConsistency(data, st)
  }

  test("assignPoint moves a single point between clusters") {
    val (data, st) = freshState(64, 3, 7)
    st.batchAssign(st.tree.root, 0)
    var leaf = st.tree.root
    val path = scala.collection.mutable.ArrayBuffer.empty[BallNode]
    while (!leaf.isLeaf) { path += leaf; leaf = leaf.left }
    (path :+ leaf).foreach(n => st.pushDown(n)())
    val p = leaf.points(0)
    assert(st.assignPoint(p, 2))
    assert(!st.assignPoint(p, 2), "same target is a no-op")
    assert(st.counts(2) >= 1)
    checkConsistency(data, st)
  }

  test("materialize resolves wholly markers") {
    val (_, st) = freshState(120, 2, 8)
    st.batchAssign(st.tree.root, 1)
    val a = st.materialize()
    assert(a.forall(_ == 1))
  }

  test("refine computes means and drifts; empty clusters keep centroids") {
    val (data, st) = freshState(100, 3, 9)
    st.batchAssign(st.tree.root, 0)
    val old = Array(Array(1.0, 1.0, 1.0), Array(9.0, 9.0, 9.0), Array(5.0, 5.0, 5.0))
    val drifts = new Array[Double](3)
    val next = st.refine(old, drifts)
    val mean = TestData.mean(data.toIndexedSeq)
    next(0).indices.foreach(i => assert(math.abs(next(0)(i) - mean(i)) < 1e-7))
    assert(next(1).sameElements(old(1)) && drifts(1) == 0.0, "empty cluster keeps its centroid")
    assert(drifts(0) > 0)
  }

  test("refine matches the allocating fromSums bit for bit, never aliases old and allocates only on its first call") {
    val (data, st) = freshState(300, 4, 10)
    val bits = (cs: Array[Array[Double]]) => cs.toSeq.map(_.toSeq.map(java.lang.Double.doubleToLongBits))
    val drifts = new Array[Double](4)
    var old = KMeans.initCentroids(data, 4, 11)
    // Cluster 3 is never assigned; clusters 1 and 2 empty in the last round.
    val rounds = Seq[() => Unit](
      () => { st.batchAssign(st.tree.root, 0); st.pushDown(st.tree.root)(); st.batchAssign(st.tree.root.right, 1) },
      () => { st.pushDown(st.tree.root.right)(); st.batchAssign(st.tree.root.right.left, 2) },
      () => st.batchAssign(st.tree.root, 0),
    )
    rounds.foreach { round =>
      round()
      // What fromSums computed when it allocated its result.
      val want = old.indices.map(j => if (st.counts(j) > 0) Vec.scale(st.sums(j), 1.0 / st.counts(j)) else old(j)).toArray
      val next = st.refine(old, drifts)
      assert(bits(next) == bits(want) && drifts.sameElements(want.indices.map(j => Vec.dist(want(j), old(j)))))
      assert(!(next eq old) && next.forall(row => !old.exists(_ eq row)), "refine aliases old")
      old = next
    }
    assert(st.counts(1) == 0 && st.counts(2) == 0 && st.counts(3) == 0)
    var next = old
    val allocated = TestData.allocatedBytes { var i = 0; while (i < 4) { next = st.refine(next, drifts); i += 1 } }
    assert(allocated == 0, s"$allocated bytes allocated by four refines")
  }
}
