package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

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
    val k = 200
    val (_, state, cs) = fixture(20000, k, 10)
    val counter = new DistanceCounter
    val index0 = new CentroidIndex(cs, 16, counter)
    val cb = DaskAssign.interBounds(cs, index0, first = true, new Array[Double](k), new Array[Double](k), counter)
    DaskAssign.step(state, cs, cb, index0, counter) // warm-up
    val drifts = new Array[Double](k)
    val next = state.refine(cs, drifts)
    val index = new CentroidIndex(next, 16, counter)
    val nextCb = DaskAssign.interBounds(next, index, first = false, cb, drifts, counter)
    val distancesBefore = counter.count
    val allocated = TestData.allocatedBytes(DaskAssign.step(state, next, nextCb, index, counter))
    assert(counter.count - distancesBefore > 10000, "the step did too little work to measure")
    assert(allocated < 64 * 1024, s"$allocated bytes allocated by one step")
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
