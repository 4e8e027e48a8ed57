package repro.estimator

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RegressorSpec extends AnyFunSuite {

  test("PolyRegressor recovers a planted interaction polynomial") {
    val rnd = new Random(1)
    val xs = Array.fill(300)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 5))
    val ys = xs.map(r => 2.0 + 3.0 * r(0) + 0.5 * r(0) * r(1) - r(1) * r(1))
    val m = new PolyRegressor(degree = 2, interactions = true, ridge = 0.0).fit(xs, ys)
    xs.take(50).zip(ys).foreach { case (x, y) =>
      assert(math.abs(m.predict(x) - y) < 1e-6, s"got ${m.predict(x)} want $y")
    }
  }

  test("basic (no interaction) regressor cannot capture a pure cross term") {
    val rnd = new Random(2)
    val xs = Array.fill(400)(Array(rnd.nextDouble() * 4 - 2, rnd.nextDouble() * 4 - 2))
    val ys = xs.map(r => r(0) * r(1))
    val basic = new PolyRegressor(degree = 3, interactions = false, ridge = 0.0).fit(xs, ys)
    val inter = new PolyRegressor(degree = 2, interactions = true, ridge = 0.0).fit(xs, ys)
    val basicErr = Metrics.mse(ys, xs.map(basic.predict))
    val interErr = Metrics.mse(ys, xs.map(inter.predict))
    assert(interErr < 1e-10)
    assert(basicErr > 100 * math.max(interErr, 1e-12), s"basic=$basicErr inter=$interErr")
  }

  test("interaction term count is the full multiset; basic is per-feature powers") {
    val xs = Array(Array(1.0, 2.0, 3.0), Array(2.0, 3.0, 4.0), Array(0.5, 1.0, -1.0), Array(4.0, 1.0, 2.0))
    val ys = Array(1.0, 2.0, 3.0, 4.0)
    val inter = new PolyRegressor(2, interactions = true).fit(xs, ys)
    // C(3+2, 2) = 10 monomials of degree ≤ 2 incl. intercept
    assert(inter.numTerms == 10)
    val basic = new PolyRegressor(2, interactions = false).fit(xs, ys)
    assert(basic.numTerms == 1 + 3 * 2)
  }

  test("high degree stays numerically stable via max-scaling") {
    val rnd = new Random(3)
    val xs = Array.fill(200)(Array(rnd.nextDouble() * 1e5, rnd.nextDouble() * 1e3))
    val ys = xs.map(r => 1e-4 * r(0) + 1e-2 * r(1))
    val m = new PolyRegressor(6, interactions = true).fit(xs, ys)
    val err = Metrics.wmape(ys, xs.map(m.predict))
    assert(err < 1e-4, s"wmape=$err")
  }

  test("degree must be positive") {
    intercept[IllegalArgumentException](new PolyRegressor(0, interactions = true))
  }

  test("PerIteration's iteration count is linear and clamped to [1, q]") {
    val rnd = new Random(4)
    def features(f: Int, k: Int) = TaskFeatures(10000L, k, 2, f, 10, 500, 499, 20.0)
    val samples = Array.fill(200) {
      val (f, k) = (1 + rnd.nextInt(100), 2 + rnd.nextInt(1000))
      TaskSample(features(f, k), Array.fill(math.max(1, math.min(10, (f * 0.08 + 1).round.toInt)))(1.0))
    }
    val m = new PerIteration(new PolyRegressor(1, interactions = false), 10).fit(samples)
    def v(x: TaskFeatures) = m.predictIterRuntimes(x).length
    val errs = samples.map(s => math.abs(v(s.features) - s.iterations))
    assert(errs.sum.toDouble / errs.length < 1.0)
    assert(v(features(-1000, 10)) == 1, "clamped below")
    assert(v(features(1000, 10)) == 10, "clamped above")
    intercept[IllegalArgumentException](new PerIteration(new PolyRegressor(1, interactions = false), 0))
  }

  test("Metrics match hand computations") {
    val y = Array(10.0, 20.0)
    val yh = Array(12.0, 16.0)
    assert(math.abs(Metrics.mse(y, yh) - (4 + 16) / 2.0) < 1e-12)
    assert(math.abs(Metrics.mae(y, yh) - 3.0) < 1e-12)
    assert(math.abs(Metrics.wmape(y, yh) - 6.0 / 30.0) < 1e-12)
    val sm = 100.0 / 2 * (2.0 / 11 + 4.0 / 18)
    assert(math.abs(Metrics.smape(y, yh) - sm) < 1e-9)
  }
}
