package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import scala.util.Random

class CentroidIndexSpec extends AnyFunSuite {

  private def centroids(k: Int, d: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    Array.fill(k)(Array.fill(d)(rnd.nextDouble() * 50))
  }

  private def brute2(cs: Array[Array[Double]], q: Array[Double]): (Int, Double, Int, Double) = {
    var i1 = -1; var d1 = Double.PositiveInfinity
    var i2 = -1; var d2 = Double.PositiveInfinity
    cs.indices.foreach { j =>
      val t = Vec.dist(q, cs(j))
      if (t < d1) { i2 = i1; d2 = d1; i1 = j; d1 = t }
      else if (t < d2) { i2 = j; d2 = t }
    }
    (i1, d1, i2, d2)
  }

  test("nearest(want = 1) with infinite bound matches brute force") {
    val rnd = new Random(1)
    for (k <- Seq(2, 5, 17, 100); d <- Seq(2, 3, 6)) {
      val cs = centroids(k, d, k * 10 + d)
      val idx = new CentroidIndex(cs, 8, new DistanceCounter)
      val out = new Best2(0.0)
      (1 to 50).foreach { _ =>
        val q = Array.fill(d)(rnd.nextDouble() * 50)
        val (bi, bd) = brute2(cs, q) match { case (i1, d1, _, _) => (i1, d1) }
        val b = idx.nearest(q, 1, Double.PositiveInfinity, out)
        assert(b.i1 == bi && math.abs(b.d1 - bd) < 1e-9, s"k=$k d=$d")
      }
    }
  }

  test("nearest(want = 2) with infinite bound matches brute force") {
    val rnd = new Random(2)
    for (k <- Seq(2, 7, 33, 200); d <- Seq(2, 4)) {
      val cs = centroids(k, d, k * 7 + d)
      val idx = new CentroidIndex(cs, 8, new DistanceCounter)
      val out = new Best2(0.0)
      (1 to 50).foreach { _ =>
        val q = Array.fill(d)(rnd.nextDouble() * 50)
        val (i1, d1, i2, d2) = brute2(cs, q)
        val b = idx.nearest(q, 2, Double.PositiveInfinity, out)
        assert(b.i1 == i1 && b.i2 == i2, s"k=$k d=$d got (${b.i1},${b.i2}) want ($i1,$i2)")
        assert(math.abs(b.d1 - d1) < 1e-9 && math.abs(b.d2 - d2) < 1e-9)
      }
    }
  }

  test("the tree's leaf capacity is capped at 8, and an f = 30 index still matches brute force") {
    val rnd = new Random(8)
    val cs = centroids(300, 3, 18)
    assert(new CentroidIndex(cs, 4, new DistanceCounter).built.leafCapacity == 4)
    val idx = new CentroidIndex(cs, 30, new DistanceCounter)
    assert(idx.built.leafCapacity == 8)
    val out = new Best2(0.0)
    (1 to 100).foreach { _ =>
      val q = Array.fill(3)(rnd.nextDouble() * 50)
      val (i1, d1, i2, d2) = brute2(cs, q)
      val b1 = idx.nearest(q, 1, Double.PositiveInfinity, out)
      assert(b1.i1 == i1 && b1.d1 == d1)
      val b2 = idx.nearest(q, 2, Double.PositiveInfinity, out)
      assert(b2.i1 == i1 && b2.d1 == d1 && b2.i2 == i2 && b2.d2 == d2)
    }
  }

  test("a valid upper bound never changes the result") {
    val rnd = new Random(3)
    val cs = centroids(60, 3, 11)
    val idx = new CentroidIndex(cs, 8, new DistanceCounter)
    val out = new Best2(0.0)
    (1 to 100).foreach { _ =>
      val q = Array.fill(3)(rnd.nextDouble() * 50)
      val (i1, d1, i2, d2) = brute2(cs, q)
      // any ub >= true distance is valid; try tight and loose
      for (slack <- Seq(0.0, 0.1, 5.0)) {
        val b = idx.nearest(q, 2, d2 + slack + 1e-12, out)
        assert(b.i1 == i1 && b.i2 == i2 && math.abs(b.d2 - d2) < 1e-9)
        val b1 = idx.nearest(q, 1, d1 + slack + 1e-12, out)
        assert(b1.i1 == i1 && math.abs(b1.d1 - d1) < 1e-9)
      }
    }
  }

  test("an invalid (too small) bound falls back to an unbounded search") {
    val rnd = new Random(4)
    val cs = centroids(40, 2, 12)
    val idx = new CentroidIndex(cs, 8, new DistanceCounter)
    val out = new Best2(0.0)
    for (want <- Seq(1, 2); _ <- 1 to 50) {
      val q = Array.fill(2)(rnd.nextDouble() * 50)
      val (i1, d1, i2, d2) = brute2(cs, q)
      val b = idx.nearest(q, want, d1 / 2, out) // below even the 1-NN distance
      assert(b.i1 == i1 && math.abs(b.d1 - d1) < 1e-9, s"want=$want")
      if (want == 2) assert(b.i2 == i2 && math.abs(b.d2 - d2) < 1e-9)
    }
  }

  test("seeding with a known candidate keeps the result exact") {
    val rnd = new Random(5)
    val cs = centroids(50, 3, 13)
    val idx = new CentroidIndex(cs, 8, new DistanceCounter)
    val out = new Best2(0.0)
    for (want <- Seq(1, 2); _ <- 1 to 50) {
      val q = Array.fill(3)(rnd.nextDouble() * 50)
      val (i1, d1, i2, d2) = brute2(cs, q)
      val seedId = rnd.nextInt(50)
      val seedDist = Vec.dist(q, cs(seedId))
      val b = idx.nearest(q, want, (if (want == 1) d1 else d2) + 1e-9, out, seedId, seedDist)
      assert(b.i1 == i1, s"want=$want")
      if (want == 2) assert(b.i2 == i2)
    }
  }

  test("a search does not measure its seed again") {
    val cs = centroids(8, 2, 16) // one leaf: a search scans all eight
    val counter = new DistanceCounter
    val idx = new CentroidIndex(cs, 8, counter)
    val out = new Best2(0.0)
    val q = Array(3.0, 4.0)
    idx.nearest(q, 2, Double.PositiveInfinity, out)
    assert(counter.count == 8)
    idx.nearest(q, 2, Double.PositiveInfinity, out, seedId = 5, seedDist = Vec.dist(q, cs(5)))
    assert(counter.count == 8 + 7)
  }

  test("narrow keeps an unscanned leaf whole though the search's seed is its first member") {
    val rnd = new Random(17)
    val cs = centroids(200, 2, 17)
    val idx = new CentroidIndex(cs, 8, new DistanceCounter)
    val lists = new CandidateLists(cs.length)
    val out = new Best2(0.0)
    val leaves = (0 until idx.built.nodeCount).map(idx.built.node).filter(_.isLeaf)
    var cases = 0
    for (_ <- 1 to 50; leaf <- leaves) {
      val q = Array.fill(2)(rnd.nextDouble() * 50)
      val seed = idx.built.idx(leaf.start)
      val end = lists.bind(idx)
      idx.nearestIn(q, 2, Double.PositiveInfinity, out, seed, Vec.dist(q, cs(seed)), lists, 0, end)
      if (lists.measuredNode(leaf.id) && !lists.scanned(leaf.id)) {
        cases += 1
        val kept = lists.entries.slice(end, idx.narrow(lists, 0, end, Double.PositiveInfinity)).toSet
        assert(kept.contains(leaf.id), s"leaf ${leaf.id} was not kept whole")
        (leaf.start until leaf.end).foreach(i => assert(!kept.contains(~idx.built.idx(i))))
      }
    }
    assert(cases > 0, "no search left its seed's leaf unscanned")
  }

  test("self-seeded 2-NN yields the nearest-other distance (inter bound)") {
    val cs = centroids(30, 2, 14)
    val idx = new CentroidIndex(cs, 4, new DistanceCounter)
    val out = new Best2(0.0)
    cs.indices.foreach { j =>
      val b = idx.nearest(cs(j), 2, Double.PositiveInfinity, out, seedId = j, seedDist = 0.0)
      val trueMin = cs.indices.filter(_ != j).map(o => Vec.dist(cs(j), cs(o))).min
      assert(b.i1 == j && math.abs(b.d2 - trueMin) < 1e-9)
    }
  }

  test("bounded search computes fewer distances than brute force") {
    val rnd = new Random(6)
    val cs = centroids(500, 3, 15)
    val counter = new DistanceCounter
    val idx = new CentroidIndex(cs, 16, counter)
    counter.count = 0
    val out = new Best2(0.0)
    (1 to 100).foreach { _ =>
      val q = Array.fill(3)(rnd.nextDouble() * 50)
      idx.nearest(q, 2, Double.PositiveInfinity, out)
    }
    assert(counter.count < 100L * 500, s"kNN did no pruning: ${counter.count}")
  }

  test("k=2 degenerate index works") {
    val cs = Array(Array(0.0, 0.0), Array(10.0, 0.0))
    val idx = new CentroidIndex(cs, 4, new DistanceCounter)
    val b = idx.nearest(Array(1.0, 0.0), 2, Double.PositiveInfinity, new Best2(0.0))
    assert(b.i1 == 0 && b.i2 == 1)
  }

  test("a search into a caller-owned queue allocates nothing") {
    val rnd = new Random(7)
    val cs = centroids(500, 3, 16)
    val idx = new CentroidIndex(cs, 16, new DistanceCounter)
    val qs = Array.fill(2000)(Array.fill(3)(rnd.nextDouble() * 50))
    val out = new Best2(0.0)
    var sink = 0
    def round(): Unit = { var i = 0; while (i < qs.length) { sink += idx.nearest(qs(i), 2, Double.PositiveInfinity, out).i2; i += 1 } }
    round() // warm-up
    val perSearch = TestData.allocatedBytes(round()).toDouble / qs.length
    assert(sink != 0)
    assert(perSearch < 8, f"$perSearch%.0f bytes allocated per search")
  }

  test("a rebuild equals a fresh build node for node, through both of a run's centroid buffers") {
    val rnd = new Random(9)
    def grid(k: Int) = Array.fill(k)(Array.fill(2)(rnd.nextInt(6).toDouble))
    def duplicates(k: Int) = { val base = centroids(5, 2, k.toLong); Array.fill(k)(base(rnd.nextInt(5)).clone()) }
    for (k <- Seq(2, 5, 8, 60, 700)) {
      // Node counts rise and fall from one set to the next.
      val sets = Seq(centroids(k, 2, k.toLong), grid(k), duplicates(k), centroids(k, 2, k + 1L), grid(k))
      val buffers = new KMeans.Buffers(k, 2)
      var current = buffers.other(null)
      val index = new CentroidIndex(sets.head.map(_.clone()), 30, new DistanceCounter)
      for ((cs, step) <- sets.zipWithIndex) {
        current = buffers.other(current)
        cs.indices.foreach(j => System.arraycopy(cs(j), 0, current(j), 0, 2))
        val t = index.rebuild(current).built
        val fresh = BallTree.build(cs, 8)
        assert(t.nodeCount == fresh.nodeCount, s"k=$k set $step")
        assert(Trees.signature(t) == Trees.signature(fresh), s"k=$k set $step")
        assert(Trees.preorder(t).zipWithIndex.forall { case (n, id) => t.node(id) eq n }, s"k=$k set $step")
      }
    }
  }

  test("a rebuild that does not grow the tree allocates nothing") {
    val a = centroids(5000, 2, 19)
    val b = centroids(5000, 2, 20)
    val index = new CentroidIndex(a, 30, new DistanceCounter)
    index.rebuild(b).rebuild(a).rebuild(b) // warm-up; the pool now holds the larger tree
    assert(TestData.allocatedBytes(index.rebuild(a)) == 0)
    assert(TestData.allocatedBytes(index.rebuild(b)) == 0)
  }

  test("a rebuild over a different number or dimension of centroids is rejected") {
    val index = new CentroidIndex(centroids(20, 2, 21), 8, new DistanceCounter)
    intercept[IllegalArgumentException](index.rebuild(centroids(21, 2, 22)))
    intercept[IllegalArgumentException](index.rebuild(centroids(20, 3, 22)))
  }
}
