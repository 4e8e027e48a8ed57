package repro.tables

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.estimator.CostEstimator

class TableVIIISpec extends AnyFunSuite {

  /** Hash of each row's error metrics' bits; the timings are left out. */
  private def bits(table: String, rows: Seq[TableVIII.MetricsRow]): Seq[(String, Int)] = rows.map { r =>
    s"$table ${r.label}" -> java.util.Arrays.hashCode(Array(r.mse, r.mae, r.wmape, r.smape).map(java.lang.Double.doubleToLongBits))
  }

  test("Table VIII, Fig. 11 and Fig. 14 rows are pinned bit for bit") {
    val (train, test) = TestData.taskSamples(50, 10, 8).splitAt(40)
    // DisNet trains 1000 epochs per row: its rows use a smaller set.
    val (small, smallTest) = TestData.taskSamples(16, 5, 12).splitAt(12)
    // At q = 5 some tasks run 4 iterations but are predicted to run 3, so
    // the GP rows also cover a prediction that the observations exhaust.
    val (train5, test5) = TestData.taskSamples(50, 5, 11).splitAt(40)
    val est5 = new CostEstimator(5).fit(train5)
    assert(test5.exists(s => s.iterations > 3 && est5.predictIterRuntimes(s.features).length <= 3))
    val got = bits("beta", TableVIII.betaSweep(train, test, 10)) ++
      bits("competitors", TableVIII.competitorComparison(small, smallTest, 5)) ++
      bits("gp", TableVIII.gpAdjustment(train, test, 10)) ++
      bits("gp q=5", TableVIII.gpAdjustment(train5, test5, 5))
    // Recorded before the GP rows went through the cost estimator's own
    // method and the iteration count through PolyRegressor.
    val pinned = Map(
      "beta beta=1 basic" -> -670100452,
      "beta beta=2 basic" -> 1209951629,
      "beta beta=3 basic" -> -1137952261,
      "beta beta=4 basic" -> 284567055,
      "beta beta=5 basic" -> -1130008719,
      "beta beta=6 basic" -> -1230018101,
      "beta beta=1 interaction" -> -670131230,
      "beta beta=2 interaction" -> -642308707,
      "beta beta=3 interaction" -> 360299609,
      "beta beta=4 interaction" -> 275749815,
      "beta beta=5 interaction" -> -1639859803,
      "beta beta=6 interaction" -> -535458237,
      "competitors XGBoost" -> -879393574,
      "competitors DisNet" -> 2107391511,
      "competitors AutoML" -> 1521456373,
      "competitors S-XGBoost" -> 518876980,
      "competitors S-DisNet" -> 2021292193,
      "competitors S-AutoML" -> 1030125470,
      "competitors Dask-means" -> -1170060810,
      "gp NoGP" -> 81540778,
      "gp GP sigma=50" -> 1192419947,
      "gp GP sigma=2" -> 1601980699,
      "gp q=5 NoGP" -> 345337812,
      "gp q=5 GP sigma=50" -> -2070444550,
      "gp q=5 GP sigma=2" -> -1981775515,
    )
    assert(got.length == pinned.size && got.map(_._1).toSet == pinned.keySet)
    got.foreach { case (key, h) => assert(h == pinned(key), key) }
  }
}
