package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import scala.util.Random

/** Direct tests of the shared per-pass API ([[DaskAssign]]) that both the
  * serial loop and the Spark per-partition operator consume.
  */
class DaskAssignSpec extends AnyFunSuite {

  private def fixture(n: Int, k: Int, seed: Long) = {
    val data = TestData.blobs(n, 2, 6, 3.0, seed)
    val tree = BallTree.build(data, 16)
    val state = new TreeAssignmentState(data, tree, k)
    val centroids = KMeans.initCentroids(data, k, seed)
    (data, state, centroids)
  }

  private def bruteAssign(data: Array[Array[Double]], cs: Array[Array[Double]]): Array[Int] =
    data.map { p =>
      var best = -1; var bd = Double.PositiveInfinity
      cs.indices.foreach { j => val t = Vec.dist2(p, cs(j)); if (t < bd) { bd = t; best = j } }
      best
    }

  test("one step assigns every point to its nearest centroid") {
    val (data, state, cs) = fixture(600, 9, 1)
    val counter = new DistanceCounter
    val index = new CentroidIndex(cs, 16, counter)
    DaskAssign.step(state, cs, null, index, counter)
    assert(state.materialize().sameElements(bruteAssign(data, cs)))
  }

  test("a second step with inter bounds keeps the brute-force result") {
    val (data, state, cs) = fixture(600, 9, 2)
    val counter = new DistanceCounter
    val idx1 = new CentroidIndex(cs, 16, counter)
    val cb = DaskAssign.interBounds(cs, idx1, first = true, new Array[Double](9), new Array[Double](9), counter)
    DaskAssign.step(state, cs, cb, idx1, counter)
    val drifts = new Array[Double](9)
    val next = state.refine(cs, drifts)
    val idx2 = new CentroidIndex(next, 16, counter)
    val cb2 = DaskAssign.interBounds(next, idx2, first = false, cb, drifts, counter)
    DaskAssign.step(state, next, cb2, idx2, counter)
    assert(state.materialize().sameElements(bruteAssign(data, next)))
  }

  test("interBounds equals the true nearest-other-centroid distances") {
    val (_, _, cs) = fixture(100, 12, 3)
    val counter = new DistanceCounter
    val index = new CentroidIndex(cs, 8, counter)
    val cb = DaskAssign.interBounds(cs, index, first = true, new Array[Double](12), new Array[Double](12), counter)
    cs.indices.foreach { j =>
      val truth = cs.indices.filter(_ != j).map(o => Vec.dist(cs(j), cs(o))).min
      assert(math.abs(cb(j) - truth) < 1e-9, s"cb($j)")
    }
  }

  test("interBounds overwrites prevCb in place and returns it") {
    val (_, _, cs) = fixture(100, 12, 11)
    val counter = new DistanceCounter
    val index = new CentroidIndex(cs, 8, counter)
    val truth = cs.indices.map(j => cs.indices.filter(_ != j).map(o => Vec.dist(cs(j), cs(o))).min)
    val prevCb = Array.fill(12)(-1.0)
    assert(DaskAssign.interBounds(cs, index, first = true, prevCb, new Array[Double](12), counter) eq prevCb)
    cs.indices.foreach(j => assert(math.abs(prevCb(j) - truth(j)) < 1e-9, s"cb($j)"))
    // The Eq. 9 bound of each j reads prevCb(j) before it is replaced.
    assert(DaskAssign.interBounds(cs, index, first = false, prevCb, new Array[Double](12), counter) eq prevCb)
    cs.indices.foreach(j => assert(math.abs(prevCb(j) - truth(j)) < 1e-9, s"cb($j) after a second pass"))
    val single = Array(0.0)
    assert(DaskAssign.interBounds(cs.take(1), null, first = true, single, Array(0.0), counter) eq single)
    assert(single(0) == Double.PositiveInfinity)
  }

  test("interBounds via linear scan (NokNN) agrees with the indexed path") {
    val (_, _, cs) = fixture(80, 10, 4)
    val counter = new DistanceCounter
    val index = new CentroidIndex(cs, 8, counter)
    val a = DaskAssign.interBounds(cs, index, first = true, new Array[Double](10), new Array[Double](10), counter)
    val b = DaskAssign.interBounds(cs, null, first = true, new Array[Double](10), new Array[Double](10), counter)
    a.indices.foreach(j => assert(math.abs(a(j) - b(j)) < 1e-9))
  }

  test("step without an index (NokNN) still assigns exactly") {
    val (data, state, cs) = fixture(400, 7, 5)
    val counter = new DistanceCounter
    DaskAssign.step(state, cs, null, null, counter)
    assert(state.materialize().sameElements(bruteAssign(data, cs)))
  }

  test("NokNN takes the lowest id on a tie, as Vec.nearest does") {
    val data = Array(Array(1.0, 0.0), Array(1.0, 1.0), Array(1.0, -1.0))
    val state = new TreeAssignmentState(data, BallTree.build(data, 2), 2)
    val counter = new DistanceCounter
    DaskAssign.step(state, Array(Array(-10.0, 0.0), Array(1.0, 0.0)), null, null, counter)
    assert(state.materialize().forall(_ == 1))
    val tied = Array(Array(0.0, 0.0), Array(2.0, 0.0)) // every point is equidistant from both
    DaskAssign.step(state, tied, null, null, counter)
    assert(state.materialize().sameElements(data.map(Vec.nearest(_, tied))))
  }

  test("a second state on the same tree does not disturb a run in progress") {
    val data = TestData.blobs(600, 2, 6, 3.0, 9)
    val tree = BallTree.build(data, 16)
    def iterate(state: TreeAssignmentState, from: Array[Array[Double]], iters: Int): Array[Array[Double]] = {
      var cs = from
      (1 to iters).foreach { _ =>
        val counter = new DistanceCounter
        DaskAssign.step(state, cs, null, new CentroidIndex(cs, 16, counter), counter)
        cs = state.refine(cs, new Array[Double](cs.length))
      }
      cs
    }
    def bits(cs: Array[Array[Double]]) = cs.toSeq.map(_.toSeq.map(java.lang.Double.doubleToLongBits))
    val init = KMeans.initCentroids(data, 9, 9)
    val solo = new TreeAssignmentState(data, tree, 9)
    val soloCs = iterate(solo, init, 6)
    val a = new TreeAssignmentState(data, tree, 9)
    val mid = iterate(a, init, 3)
    iterate(new TreeAssignmentState(data, tree, 9), KMeans.initCentroids(data, 9, 10), 1)
    val aCs = iterate(a, mid, 3)
    assert(bits(aCs) == bits(soloCs))
    assert(a.materialize().sameElements(solo.materialize()))
  }

  test("a step with the index and inter bounds allocates no queue per search") {
    // 104 bytes at both sizes before the candidate lists, and after them.
    for ((n, k) <- Seq((20000, 200), (100000, 2000))) {
      val (_, state, cs) = fixture(n, k, 10)
      val counter = new DistanceCounter
      val index0 = new CentroidIndex(cs, 16, counter)
      val cb = DaskAssign.interBounds(cs, index0, first = true, new Array[Double](k), new Array[Double](k), counter)
      DaskAssign.step(state, cs, cb, index0, counter) // warm-up; sizes the run's candidate lists
      val drifts = new Array[Double](k)
      val next = state.refine(cs, drifts)
      val index = new CentroidIndex(next, 16, counter)
      val nextCb = DaskAssign.interBounds(next, index, first = false, cb, drifts, counter)
      val distancesBefore = counter.count
      val allocated = TestData.allocatedBytes(DaskAssign.step(state, next, nextCb, index, counter))
      assert(counter.count - distancesBefore > 10000, s"n=$n k=$k: the step did too little work to measure")
      assert(allocated < 1024, s"n=$n k=$k: $allocated bytes allocated by one step")
    }
  }

  /** Inputs with exact ties: uniform, an integer grid, exact duplicates and
    * collinear (x, 2x) points.
    */
  private def tiedInputs(seed: Long): Seq[(String, Array[Array[Double]])] = {
    val rnd = new Random(seed)
    val base = Array.fill(40)(Array.fill(3)(rnd.nextDouble() * 10))
    Seq(
      "uniform" -> TestData.uniform(500, 2, seed),
      "grid" -> Array.fill(500)(Array.fill(2)(rnd.nextInt(12).toDouble)),
      "duplicates" -> Array.fill(500)(base(rnd.nextInt(base.length)).clone()),
      "collinear" -> Array.fill(500) { val x = rnd.nextInt(60).toDouble; Array(x, 2 * x) },
    )
  }

  private def nearestDists(q: Array[Double], cs: Array[Array[Double]]): (Double, Double) = {
    val ds = cs.map(Vec.dist(q, _)).sorted
    (ds(0), ds(1))
  }

  test("inherited candidate lists give the brute-force nearest distances at every node and point") {
    // k = 8 is a one-leaf centroid index, k = 9 the smallest with two leaves.
    for ((label, data) <- tiedInputs(21); k <- Seq(2, 8, 9, 60)) {
      val cs = KMeans.initCentroids(data, k, k.toLong)
      val index = new CentroidIndex(cs, 8, new DistanceCounter)
      val tree = BallTree.build(data, 4)
      val lists = new CandidateLists(k)
      val out = new Best2(0.0)
      val rnd = new Random(k)
      // Compares distances, not ids: on a tie either id is a nearest one.
      // The search whose distances `narrow` reads is seeded with a random
      // centroid, which it must not measure again nor take for a scan of
      // its leaf.
      def search(q: Array[Double], want: Int, ub: Double, from: Int, until: Int, what: String): Best2 = {
        val (t1, t2) = nearestDists(q, cs)
        val low = index.nearestIn(q, want, t1 / 2, out, -1, 0.0, lists, from, until)
        assert(low.d1 == t1 && (want == 1 || low.d2 == t2), s"$label k=$k $what: a too small bound")
        val seed = rnd.nextInt(k)
        val b = index.nearestIn(q, want, ub, out, seed, Vec.dist(q, cs(seed)), lists, from, until)
        assert(b.d1 == t1 && (want == 1 || b.d2 == t2), s"$label k=$k $what")
        b
      }
      def walk(node: BallNode, ub: Double, from: Int, until: Int): Unit = {
        val b = search(node.pivot, 2, ub, from, until, s"node ${node.id}")
        if (node.isLeaf) {
          val pointUb = b.d1 + node.radius
          val end = index.narrow(lists, from, until, b.d1 + 2 * node.radius)
          Trees.members(tree, node).foreach(p => search(data(p), 1, pointUb, until, end, s"point $p"))
        } else {
          val childUb = b.d2 + node.radius
          val end = index.narrow(lists, from, until, b.d2 + 2 * node.radius)
          walk(node.left, childUb, until, end)
          walk(node.right, childUb, until, end)
        }
      }
      walk(tree.root, Double.PositiveInfinity, 0, lists.bind(index))
    }
  }

  test("Dask-means and NoInB runs on an integer grid leave every point at a nearest centroid") {
    val data = tiedInputs(22).toMap.apply("grid")
    val tree = BallTree.build(data, 4)
    for (k <- Seq(2, 8, 9, 60); useCb <- Seq(true, false)) {
      val state = new TreeAssignmentState(data, tree, k)
      val cb = new Array[Double](k)
      val drifts = new Array[Double](k)
      var cs = KMeans.initCentroids(data, k, k.toLong)
      (0 until 8).foreach { it =>
        val counter = new DistanceCounter
        val index = new CentroidIndex(cs, 8, counter)
        if (useCb) DaskAssign.interBounds(cs, index, first = it == 0, cb, drifts, counter)
        DaskAssign.step(state, cs, if (useCb) cb else null, index, counter)
        val a = state.materialize()
        data.indices.foreach { p =>
          assert(Vec.dist(data(p), cs(a(p))) == nearestDists(data(p), cs)._1, s"k=$k cb=$useCb iteration $it point $p")
        }
        cs = state.refine(cs, drifts)
      }
    }
  }

  test("k=1 short-circuits to a single batch assignment") {
    val (data, state, _) = fixture(200, 1, 6)
    val counter = new DistanceCounter
    val pruned = DaskAssign.step(state, Array(Array(0.0, 0.0)), null, null, counter)
    assert(pruned == 200 && state.materialize().forall(_ == 0))
    assert(counter.count == 0, "no distances needed for k=1")
  }

  test("returned pruned count is bounded by n") {
    val (data, state, cs) = fixture(500, 4, 7)
    val counter = new DistanceCounter
    val index = new CentroidIndex(cs, 16, counter)
    val pruned = DaskAssign.step(state, cs, null, index, counter)
    assert(pruned >= 0 && pruned <= data.length)
  }

  test("repeated steps against unchanged centroids prune everything") {
    val (data, state, cs) = fixture(500, 5, 8)
    val counter = new DistanceCounter
    val index = new CentroidIndex(cs, 16, counter)
    val cb = DaskAssign.interBounds(cs, index, first = true, new Array[Double](5), new Array[Double](5), counter)
    DaskAssign.step(state, cs, cb, index, counter)
    val before = state.materialize().clone()
    DaskAssign.step(state, cs, cb, index, counter)
    assert(state.materialize().sameElements(before), "idempotent under fixed centroids")
  }
}
