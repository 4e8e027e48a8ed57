package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import scala.util.Random

class VecSpec extends AnyFunSuite {

  private def randomPair(rnd: Random): (Array[Double], Array[Double]) = {
    val d = 1 + rnd.nextInt(8)
    (Array.fill(d)(rnd.nextDouble() * 200 - 100), Array.fill(d)(rnd.nextDouble() * 200 - 100))
  }

  test("dist of identical vectors is zero") {
    assert(Vec.dist(Array(1.0, 2.0, 3.0), Array(1.0, 2.0, 3.0)) == 0.0)
  }

  test("dist matches hand computation") {
    assert(math.abs(Vec.dist(Array(0.0, 0.0), Array(3.0, 4.0)) - 5.0) < 1e-12)
  }

  test("dist2 is the square of dist") {
    val rnd = new Random(1)
    (1 to 200).foreach { _ =>
      val (a, b) = randomPair(rnd)
      assert(math.abs(Vec.dist2(a, b) - Vec.dist(a, b) * Vec.dist(a, b)) < 1e-6)
    }
  }

  test("dist is symmetric") {
    val rnd = new Random(2)
    (1 to 200).foreach { _ =>
      val (a, b) = randomPair(rnd)
      assert(Vec.dist(a, b) == Vec.dist(b, a))
    }
  }

  test("triangle inequality holds") {
    val rnd = new Random(3)
    (1 to 200).foreach { _ =>
      val (a, b) = randomPair(rnd)
      val c = Array.fill(a.length)(rnd.nextDouble() * 200 - 100)
      assert(Vec.dist(a, b) <= Vec.dist(a, c) + Vec.dist(c, b) + 1e-9)
    }
  }

  test("addInto accumulates componentwise") {
    val a = Array(1.0, 2.0); Vec.addInto(a, Array(0.5, -1.0))
    assert(a.sameElements(Array(1.5, 1.0)))
  }

  test("subInto is the inverse of addInto") {
    val rnd = new Random(4)
    (1 to 100).foreach { _ =>
      val (a, b) = randomPair(rnd)
      val copy = a.clone()
      Vec.addInto(copy, b); Vec.subInto(copy, b)
      copy.indices.foreach(i => assert(math.abs(copy(i) - a(i)) < 1e-9))
    }
  }

  test("nearest takes the smallest squared distance, the lowest index on a tie") {
    val cs = Array(Array(3.0, 0.0), Array(1.0, 1.0), Array(-1.0, 1.0), Array(0.0, 0.5))
    assert(Vec.nearest(Array(0.0, 0.0), cs) == 3)
    assert(Vec.nearest(Array(0.0, 2.0), cs) == 1)
  }

  test("nearest2 takes the lowest id on a tie and does not count the skipped centroid") {
    val cs = Array(Array(3.0, 0.0), Array(0.0, 1.0), Array(1.0, 0.0), Array(0.0, -1.0), Array(-1.0, 0.0))
    val c = new DistanceCounter
    val b = c.nearest2(Array(0.0, 0.0), cs)
    assert(b.i1 == 1 && b.d1 == 1.0 && b.i2 == 2 && b.d2 == 1.0 && c.count == 5)
    val s = new DistanceCounter
    val bs = s.nearest2(Array(0.0, 0.0), cs, skip = 3, skipDist = 0.5)
    assert(bs.i1 == 3 && bs.d1 == 0.5 && bs.i2 == 1 && bs.d2 == 1.0 && s.count == cs.length - 1)
    val self = new DistanceCounter
    val bself = self.nearest2(cs(2), cs, skip = 2)
    assert(bself.i1 == 2 && bself.d1 == 0.0 && self.count == cs.length - 1)
    assert(bself.i2 == 1 && bself.d2 == Vec.dist(cs(2), cs(1)), "self-skip gives the nearest-other distance")
  }

  test("allFinite rejects a NaN or infinite coordinate in any vector") {
    assert(Vec.allFinite(Array(Array(1.0, -2.0), Array.empty[Double], Array(Double.MaxValue))))
    assert(Vec.allFinite(Array.empty[Array[Double]]))
    Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).foreach { bad =>
      assert(!Vec.allFinite(Array(Array(1.0, 2.0), Array(3.0, bad))))
    }
  }

  test("scale produces a fresh scaled array") {
    val a = Array(2.0, 4.0)
    val s = Vec.scale(a, 0.5)
    assert(s.sameElements(Array(1.0, 2.0)) && a.sameElements(Array(2.0, 4.0)))
  }

  test("mean of points equals componentwise average") {
    val m = TestData.mean(IndexedSeq(Array(0.0, 0.0), Array(2.0, 4.0)))
    assert(m.sameElements(Array(1.0, 2.0)))
  }

  test("DistanceCounter counts every call") {
    val c = new DistanceCounter
    c.dist(Array(0.0), Array(1.0)); c.dist2(Array(0.0), Array(1.0))
    assert(c.count == 2)
  }
}
