package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import scala.util.Random

class BallTreeSpec extends AnyFunSuite {

  private def randomData(n: Int, d: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    Array.fill(n)(Array.fill(d)(rnd.nextDouble() * 100))
  }

  private def checkInvariants(data: Array[Array[Double]], t: BallTree.Built, node: BallNode, f: Int): Unit = {
    val pts = Trees.covered(t, node)
    assert(node.count == pts.size, "count must match covered points")
    // radius covers every point
    pts.foreach(p => assert(Vec.dist(node.pivot, data(p)) <= node.radius + 1e-9))
    // pivot is the mean, sum is the componentwise sum
    val mean = TestData.mean(pts.map(data(_)).toIndexedSeq)
    node.pivot.indices.foreach { i =>
      assert(math.abs(node.pivot(i) - mean(i)) < 1e-7)
      assert(math.abs(node.sum(i) - mean(i) * node.count) < 1e-5)
    }
    if (node.isLeaf) assert(node.count <= f, s"leaf holds ${node.count} > f=$f")
    else {
      assert(node.left.count + node.right.count == node.count)
      checkInvariants(data, t, node.left, f)
      checkInvariants(data, t, node.right, f)
    }
  }

  test("build covers every point exactly once") {
    val data = randomData(500, 3, 1)
    val t = BallTree.build(data, 16)
    assert(Trees.covered(t, t.root).sorted == (0 until 500))
  }

  test("invariants hold for random data across shapes") {
    for ((n, d, f) <- Seq((100, 2, 4), (257, 3, 16), (1000, 2, 30), (64, 5, 8))) {
      val data = randomData(n, d, n.toLong * d + f)
      val t = BallTree.build(data, f)
      checkInvariants(data, t, t.root, f)
    }
  }

  test("build handles duplicate-heavy input") {
    val rnd = new Random(9)
    val data = Array.fill(300)(Array(rnd.nextInt(3).toDouble, rnd.nextInt(3).toDouble))
    val t = BallTree.build(data, 8)
    checkInvariants(data, t, t.root, 8)
    assert(Trees.covered(t, t.root).sorted == (0 until 300))
  }

  test("build handles all-identical input") {
    val data = Array.fill(100)(Array(1.0, 2.0, 3.0))
    val t = BallTree.build(data, 4)
    checkInvariants(data, t, t.root, 4)
    assert(t.root.radius == 0.0)
  }

  test("single point builds a single leaf") {
    val t = BallTree.build(Array(Array(1.0, 2.0)), 8)
    assert(t.root.isLeaf && t.root.count == 1 && t.nodeCount == 1)
  }

  test("node ids are unique and dense") {
    val data = randomData(300, 2, 5)
    val t = BallTree.build(data, 10)
    val ids = scala.collection.mutable.ArrayBuffer.empty[Int]
    def walk(n: BallNode): Unit = { ids += n.id; if (!n.isLeaf) { walk(n.left); walk(n.right) } }
    walk(t.root)
    assert(ids.sorted == (0 until t.nodeCount))
  }

  test("larger leaf capacity yields fewer nodes") {
    val data = randomData(2000, 3, 6)
    val small = BallTree.build(data, 8)
    val large = BallTree.build(data, 64)
    assert(large.nodeCount < small.nodeCount)
  }

  test("stats reflect the tree structure") {
    val data = randomData(512, 2, 7)
    val t = BallTree.build(data, 16)
    val s = BallTree.stats(t.root)
    assert(s.leafNodes + s.internalNodes == t.nodeCount)
    assert(s.internalNodes == s.leafNodes - 1, "binary tree: internals = leaves - 1")
    assert(s.depth >= math.ceil(math.log(512.0 / 16) / math.log(2)).toInt)
    assert(math.abs(s.avgLeafFill * s.leafNodes - 512) < 1e-6)
  }

  test("build is deterministic") {
    val data = randomData(400, 3, 8)
    val a = BallTree.build(data, 12)
    val b = BallTree.build(data, 12)
    assert(Trees.covered(a, a.root) == Trees.covered(b, b.root))
    assert(a.nodeCount == b.nodeCount)
  }

  test("leaf capacity below 2 is rejected") {
    intercept[IllegalArgumentException](BallTree.build(randomData(10, 2, 11), 1))
  }

  test("empty input is rejected") {
    intercept[IllegalArgumentException](BallTree.build(Array.empty[Array[Double]], 8))
  }
}
