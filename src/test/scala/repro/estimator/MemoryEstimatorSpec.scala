package repro.estimator

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.BallTree

class MemoryEstimatorSpec extends AnyFunSuite {

  /** The paper's printed d=3 approximation of Eq. 10. */
  private def paperIndexFloatsApprox(n: Long, f: Long): Double = 2.0 * n + 28.0 * n / f - 16.0

  /** The paper's printed closed form of Eq. 12 (d=3). */
  private def paperLeafCapacityApprox(n: Long, k: Long, memoryFloats: Double): Double =
    28.0 * (n + k) / (memoryFloats - 3.0 * n + 32 - 2.0 * k)

  test("indexFloats matches the hand-computed Eq. 10 structure") {
    // n=100, f=10, d=3: ⌈200/10⌉=20 leaves à 16 floats, 19 internals à 8
    assert(MemoryEstimator.indexFloats(100, 10, 3) == 20 * 16 + 19 * 8)
  }

  test("general formula at d=3 tracks the paper's printed approximation") {
    for (n <- Seq(10_000L, 100_000L, 1_000_000L); f <- Seq(10L, 30L, 100L)) {
      val exact = MemoryEstimator.indexFloats(n, f, 3).toDouble
      val approx = paperIndexFloatsApprox(n, f)
      assert(math.abs(exact - approx) / exact < 0.01, s"n=$n f=$f: $exact vs $approx")
    }
  }

  test("footprint decreases as f grows (within the tree regime)") {
    val vals = Seq(4L, 10L, 30L, 100L, 300L).map(f => MemoryEstimator.daskMeansExtraFloats(100_000, 1000, 3, f))
    assert(vals == vals.sorted(Ordering[Long].reverse))
  }

  test("footprint grows with n and with k") {
    assert(MemoryEstimator.daskMeansExtraFloats(200_000, 1000, 3, 30) >
      MemoryEstimator.daskMeansExtraFloats(100_000, 1000, 3, 30))
    assert(MemoryEstimator.daskMeansExtraFloats(100_000, 10_000, 3, 30) >
      MemoryEstimator.daskMeansExtraFloats(100_000, 100, 3, 30))
  }

  test("bytes are 8x floats") {
    assert(MemoryEstimator.daskMeansExtraBytes(1000, 10, 3, 30) ==
      8 * MemoryEstimator.daskMeansExtraFloats(1000, 10, 3, 30))
  }

  test("leafCapacityFor returns the smallest f that fits") {
    val n = 100_000L; val k = 1000L; val d = 3L
    val budget = MemoryEstimator.daskMeansExtraFloats(n, k, d, 42)
    val f = MemoryEstimator.leafCapacityFor(n, k, d, budget).get
    assert(MemoryEstimator.daskMeansExtraFloats(n, k, d, f.toLong) <= budget)
    if (f > 2) assert(MemoryEstimator.daskMeansExtraFloats(n, k, d, (f - 1).toLong) > budget)
  }

  test("leafCapacityFor: ample budget yields the smallest capacity 2") {
    assert(MemoryEstimator.leafCapacityFor(1000, 10, 2, 1_000_000_000L).contains(2))
  }

  test("leafCapacityFor: infeasible budget yields None") {
    // 3n floats is a hard floor (data-linked terms), so n/2 can never fit
    assert(MemoryEstimator.leafCapacityFor(100_000, 1000, 3, 50_000).isEmpty)
  }

  test("Eq. 12 printed closed form is close to the searched inverse") {
    val n = 1_000_000L; val k = 10_000L
    // the paper counts 4-byte units; 15 MB → 3.93e6 units
    val units = (15e6 / 4).toLong
    val printed = paperLeafCapacityApprox(n, k, units.toDouble)
    val searched = MemoryEstimator.leafCapacityFor(n, k, 3, units).get
    assert(printed > 0)
    assert(math.abs(printed - searched) / printed < 0.35, s"printed=$printed searched=$searched")
  }

  test("estimate brackets the measured index memory within 45%") {
    for (f <- Seq(16, 30, 100)) {
      val data = TestData.blobs(20_000, 3, 20, 3.0, seed = f)
      val built = BallTree.build(data, f)
      val actual = MemoryMeter.indexBytes(built, 3).toDouble
      val est = 8.0 * MemoryEstimator.indexFloats(20_000, f.toLong, 3)
      val ratio = est / actual
      assert(ratio > 0.55 && ratio < 1.8, s"f=$f ratio=$ratio")
    }
  }

  test("meter: more nodes means more bytes") {
    val data = TestData.uniform(10_000, 3, 1)
    val a = MemoryMeter.indexBytes(BallTree.build(data, 8), 3)
    val b = MemoryMeter.indexBytes(BallTree.build(data, 64), 3)
    assert(a > b)
  }

  test("meter counts the assignment array") {
    val data = TestData.uniform(1000, 2, 2)
    val t = BallTree.build(data, 16)
    val c = BallTree.build(data.take(10), 16)
    val total = MemoryMeter.daskMeansActualBytes(t, c, 2, 1000)
    assert(total > MemoryMeter.indexBytes(t, 2) + MemoryMeter.indexBytes(c, 2) + 4000 - 1)
  }

  test("invalid arguments are rejected") {
    intercept[IllegalArgumentException](MemoryEstimator.indexFloats(0, 10, 3))
    intercept[IllegalArgumentException](MemoryEstimator.indexFloats(10, 1, 3))
  }
}
