package repro.bench

import repro.SparkSpec
import repro.tables.TableIV

/** Reproduces Table V: pruning power on the high-dimensional (128-d /
  * 256-d) embedded-trajectory substitutes. Scale is reduced further than
  * Table IV (n = 10k, k ∈ {50, 200, 500}) because every distance costs
  * d ≥ 128 multiplies — the paper's own lesson is that all algorithms
  * degrade here.
  */
class TableVBench extends SparkSpec {

  private lazy val rows = TableIV.highDim(spark)

  private def cell(r: TableIV.Row, algo: String): Option[Double] =
    r.cells.find(_.algorithm == algo).get.runtimeSec

  test("produce and record Table V") {
    BenchOut.write("table_v.txt", TableIV.render(rows))
    assert(rows.size == 6)
  }

  test("Dask-means and NoInB stay close at high dimension (paper Table V)") {
    // the two differ only by the inter-bound checks; neither should be
    // catastrophically worse. 4x tolerance absorbs container noise bursts
    // observed on sub-second cells.
    rows.foreach { r =>
      val dask = cell(r, "Dask-means").get
      val noInB = cell(r, "NoInB").get
      assert(dask < noInB * 4 && noInB < dask * 4, s"${r.dataset} k=${r.k}: $dask vs $noInB")
    }
  }

  test("Dask-means beats Lloyd at the largest k despite the curse of dimensionality") {
    rows.filter(_.k == 500).foreach { r =>
      val dask = cell(r, "Dask-means").get
      val lloyd = cell(r, "Lloyd").get
      assert(dask < lloyd, s"${r.dataset}: dask=$dask lloyd=$lloyd")
    }
  }

  test("high-d speedups are far smaller than low-d ones (paper's lesson)") {
    val speedups = rows.filter(_.k == 500).map(r => cell(r, "Lloyd").get / cell(r, "Dask-means").get)
    // paper reports ~15x at k=10^4 vs up to 168x in low-d; at our scale just
    // assert the factor is modest rather than explosive
    assert(speedups.forall(_ < 100.0), s"speedups=$speedups")
  }

  test("exactness holds in high dimension") {
    rows.foreach { r =>
      val done = r.cells.filter(_.runtimeSec.isDefined)
      val ref = done.head.sse
      done.foreach(c => assert(math.abs(c.sse - ref) / math.max(1.0, ref) < 1e-6,
        s"${r.dataset} k=${r.k} ${c.algorithm}"))
    }
  }
}
