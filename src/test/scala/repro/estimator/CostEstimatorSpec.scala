package repro.estimator

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.competitors.{DisNet, XgBoostLite}

class CostEstimatorSpec extends AnyFunSuite {

  test("fit + predict achieves low WMAPE on the synthetic family") {
    val all = TestData.taskSamples(300, 10, 1)
    val (train, test) = all.splitAt(240)
    val est = new CostEstimator(q = 10).fit(train)
    val actual = test.map(_.totalMs)
    val preds = test.map(s => est.predictTotalMs(s.features))
    val w = Metrics.wmape(actual, preds)
    assert(w < 0.35, s"wmape=$w")
  }

  test("interaction features beat basic features on this family") {
    val all = TestData.taskSamples(300, 10, 2)
    val (train, test) = all.splitAt(240)
    val actual = test.map(_.totalMs)
    val inter = new CostEstimator(10, degree = 3, interactions = true).fit(train)
    val basic = new CostEstimator(10, degree = 3, interactions = false).fit(train)
    val wI = Metrics.wmape(actual, test.map(s => inter.predictTotalMs(s.features)))
    val wB = Metrics.wmape(actual, test.map(s => basic.predictTotalMs(s.features)))
    assert(wI <= wB * 1.1, s"interaction=$wI basic=$wB")
  }

  test("per-iteration predictions are non-negative and length = predicted v") {
    val all = TestData.taskSamples(100, 8, 3)
    val est = new CostEstimator(8).fit(all)
    all.take(20).foreach { s =>
      val p = est.predictIterRuntimes(s.features)
      assert(p.nonEmpty && p.length <= 8)
      assert(p.forall(_ >= 0.0))
    }
  }

  test("adjustment with a systematic bias improves the estimate") {
    val all = TestData.taskSamples(200, 10, 4)
    val (train, test) = all.splitAt(160)
    val est = new CostEstimator(10).fit(train)
    // simulate a device that is 2x slower than the training machine
    var adjBetter = 0; var total = 0
    test.foreach { s =>
      val slowed = s.iterRuntimesMs.map(_ * 2.0)
      val actualTotal = slowed.sum
      if (slowed.length > 3) {
        total += 1
        val plain = est.predictTotalMs(s.features)
        val adjusted = est.adjustedIterRuntimes(s.features, slowed.take(3), new GpAdjuster).sum
        if (math.abs(adjusted - actualTotal) < math.abs(plain - actualTotal)) adjBetter += 1
      }
    }
    assert(total > 0 && adjBetter.toDouble / total > 0.8, s"adjusted better on $adjBetter/$total")
  }

  test("fully observed task returns the exact observed total") {
    val all = TestData.taskSamples(50, 6, 5)
    val est = new CostEstimator(6).fit(all)
    val s = all.head
    val obs = Array.fill(6)(7.0)
    assert(est.adjustedIterRuntimes(s.features, obs, new GpAdjuster).sum == obs.sum)
  }

  test("fit on an empty sample set is rejected") {
    intercept[IllegalArgumentException](new CostEstimator(5).fit(Array.empty))
  }

  test("predictions are pinned bit for bit") {
    val all = TestData.taskSamples(120, 10, 7)
    val (train, test) = all.splitAt(96)
    def bits(xs: Array[Double]): Int = java.util.Arrays.hashCode(xs.map(java.lang.Double.doubleToLongBits))
    val estimators = for (interactions <- Seq(false, true); beta <- 1 to 6) yield {
      val est = new CostEstimator(10, degree = beta, interactions = interactions).fit(train)
      val label = s"beta=$beta ${if (interactions) "interaction" else "basic"}"
      Seq(s"$label total" -> bits(test.map(s => est.predictTotalMs(s.features))),
        s"$label iter" -> bits(test.flatMap(s => est.predictIterRuntimes(s.features))))
    }
    val adjusted = {
      val est = new CostEstimator(10).fit(train)
      "adjusted" -> bits(test.map(s => est.adjustedIterRuntimes(s.features, s.iterRuntimesMs.take(2), new GpAdjuster).sum))
    }
    val competitors = Seq[(String, () => RuntimeModel)](
      "XGBoost" -> (() => new XgBoostLite), "DisNet" -> (() => new DisNet(epochs = 5)),
      "AutoML" -> (() => new PolyRegressor(degree = 1, interactions = false, ridge = 0.1))).flatMap { case (label, model) =>
      val whole = model().fitTotals(train)
      val perIter = new PerIteration(model(), 10).fit(train)
      Seq(label -> bits(test.map(s => whole.predictTotal(s.features))),
        s"S-$label" -> bits(test.map(s => perIter.predictTotalMs(s.features))))
    }
    val got = (estimators.flatten :+ adjusted) ++ competitors
    // Recorded before the estimator and its baselines shared one
    // per-iteration predictor: hash of each prediction vector's bits.
    val pinned = Map(
      "beta=1 basic total" -> -856999139,
      "beta=1 basic iter" -> -891007782,
      "beta=2 basic total" -> 1534095199,
      "beta=2 basic iter" -> -1177578020,
      "beta=3 basic total" -> 1938609683,
      "beta=3 basic iter" -> 248193532,
      "beta=4 basic total" -> 2144337668,
      "beta=4 basic iter" -> -1512721671,
      "beta=5 basic total" -> 378400087,
      "beta=5 basic iter" -> 1091486098,
      "beta=6 basic total" -> 742814595,
      "beta=6 basic iter" -> -1104741811,
      "beta=1 interaction total" -> -312943117,
      "beta=1 interaction iter" -> -844543230,
      "beta=2 interaction total" -> 1577552968,
      "beta=2 interaction iter" -> 1789855572,
      "beta=3 interaction total" -> -1772105881,
      "beta=3 interaction iter" -> 1114582814,
      "beta=4 interaction total" -> 521208589,
      "beta=4 interaction iter" -> -1875069479,
      "beta=5 interaction total" -> -308076527,
      "beta=5 interaction iter" -> -1155614075,
      "beta=6 interaction total" -> 1092400897,
      "beta=6 interaction iter" -> -1540637950,
      "adjusted" -> 2098036268,
      "XGBoost" -> 979822336,
      "S-XGBoost" -> 1824254944,
      "DisNet" -> -622759710,
      "S-DisNet" -> -589521674,
      "AutoML" -> 648986913,
      "S-AutoML" -> 1466924379,
    )
    assert(got.map(_._1).toSet == pinned.keySet)
    got.foreach { case (key, h) => assert(h == pinned(key), key) }
  }
}
