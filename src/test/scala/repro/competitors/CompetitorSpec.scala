package repro.competitors

import org.scalatest.funsuite.AnyFunSuite
import repro.estimator.{Metrics, PerIteration, TaskFeatures, TaskSample}
import repro.tables.TableVIII
import scala.util.Random

class CompetitorSpec extends AnyFunSuite {

  private def linearData(n: Int, seed: Long): (Array[Array[Double]], Array[Double]) = {
    val rnd = new Random(seed)
    val xs = Array.fill(n)(Array.fill(3)(rnd.nextDouble() * 10))
    val ys = xs.map(r => 5.0 + 2.0 * r(0) - r(1) + 0.5 * r(2) + rnd.nextGaussian() * 0.05)
    (xs, ys)
  }

  private def autoMl() = TableVIII.competitors.toMap.apply("AutoML")()

  private def meanBaselineMse(ys: Array[Double]): Double = {
    val m = ys.sum / ys.length
    Metrics.mse(ys, ys.map(_ => m))
  }

  test("AutoML fits a linear relation") {
    val (xs, ys) = linearData(300, 1)
    val m = autoMl().fit(xs, ys)
    assert(Metrics.mse(ys, xs.map(m.predict)) < meanBaselineMse(ys) / 50)
  }

  test("XgBoostLite fits a nonlinear relation far better than the mean") {
    val rnd = new Random(2)
    val xs = Array.fill(400)(Array.fill(2)(rnd.nextDouble() * 6 - 3))
    val ys = xs.map(r => math.sin(r(0)) * 5 + r(1) * r(1))
    val m = new XgBoostLite(numTrees = 60, colSample = 1.0).fit(xs, ys)
    assert(Metrics.mse(ys, xs.map(m.predict)) < meanBaselineMse(ys) / 10)
  }

  test("XgBoostLite column sampling still learns") {
    val (xs, ys) = linearData(300, 3)
    val m = new XgBoostLite().fit(xs, ys)
    assert(Metrics.mse(ys, xs.map(m.predict)) < meanBaselineMse(ys) / 3)
  }

  test("DisNet learns a smooth function") {
    val rnd = new Random(4)
    val xs = Array.fill(200)(Array.fill(2)(rnd.nextDouble()))
    val ys = xs.map(r => 3 * r(0) + r(1) * r(1) * 2)
    val m = new DisNet(epochs = 400, learningRate = 1e-3).fit(xs, ys)
    val preds = xs.map(m.predict)
    assert(Metrics.mse(ys, preds) < meanBaselineMse(ys) / 5)
    // Recorded before the layers became one Dense class: hash of the
    // predictions' bits.
    assert(java.util.Arrays.hashCode(preds.map(java.lang.Double.doubleToLongBits)) == -108076393)
  }

  test("model names match the paper's labels") {
    assert(TableVIII.competitors.map(_._1) == Seq("XGBoost", "DisNet", "AutoML"))
  }

  private def samplesFor(count: Int, q: Int, seed: Long): Array[TaskSample] = {
    val rnd = new Random(seed)
    Array.fill(count) {
      val n = 1000 + rnd.nextInt(10000)
      val k = 10 + rnd.nextInt(100)
      val leaves = math.max(1, n / 15)
      val feats = TaskFeatures(n.toLong, k, 2, 30, 10, leaves, leaves - 1, 15.0)
      val iters = 2 + rnd.nextInt(q - 1)
      TaskSample(feats, Array.tabulate(iters)(i => 1e-3 * n * (if (i == 0) 1.5 else 1.0)))
    }
  }

  test("fitTotals/predictTotal round trip") {
    val samples = samplesFor(120, 8, 5)
    val m = autoMl().fitTotals(samples)
    val w = Metrics.wmape(samples.map(_.totalMs), samples.map(s => m.predictTotal(s.features)))
    assert(w < 0.6, s"wmape=$w")
  }

  test("PerIteration wrapper predicts by summing per-iteration estimates") {
    val samples = samplesFor(150, 8, 6)
    val m = new PerIteration(autoMl(), 8).fit(samples)
    val w = Metrics.wmape(samples.map(_.totalMs), samples.map(s => m.predictTotalMs(s.features)))
    assert(w < 0.6, s"wmape=$w")
    samples.take(10).foreach(s => assert(m.predictTotalMs(s.features) >= 0.0))
  }
}
