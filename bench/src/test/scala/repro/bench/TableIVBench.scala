package repro.bench

import repro.SparkSpec
import repro.tables.TableIV

/** Reproduces Table IV: total runtime of the ten algorithms over the six
  * low-dimensional datasets at 1/10 of the paper's scale (n = 100k,
  * k ∈ {100, 1000, 5000}, maxIters = 10). Shape checks assert the paper's
  * qualitative findings; absolute times go to bench_results/.
  */
class TableIVBench extends SparkSpec {

  private lazy val rows = TableIV.lowDim(spark)

  private def cell(r: TableIV.Row, algo: String): Option[Double] =
    r.cells.find(_.algorithm == algo).get.runtimeSec

  test("produce and record Table IV") {
    BenchOut.write("table_iv.txt", TableIV.render(rows))
    assert(rows.size == 18)
  }

  test("Elkan and Drake hit the device memory gate at k=5000 (paper's N/A)") {
    rows.filter(_.k == 5000).foreach { r =>
      assert(cell(r, "Elkan").isEmpty, s"${r.dataset}: Elkan should be N/A")
      assert(cell(r, "Drake").isEmpty, s"${r.dataset}: Drake should be N/A")
    }
    rows.filter(_.k == 100).foreach { r =>
      assert(cell(r, "Elkan").isDefined, s"${r.dataset}: Elkan should run at k=100")
    }
  }

  test("Dask-means beats Lloyd at large k in (almost) every setting") {
    val settings = rows.filter(_.k >= 1000)
    val wins = settings.count { r =>
      cell(r, "Dask-means").get < cell(r, "Lloyd").get
    }
    // all 12 in the paper; allow one noise-hit cell in the container
    assert(wins >= settings.size - 1, s"Dask-means beat Lloyd in only $wins/${settings.size}")
  }

  test("Dask-means achieves a large speedup over Lloyd at k=5000") {
    val speedups = rows.filter(_.k == 5000).map { r =>
      cell(r, "Lloyd").get / cell(r, "Dask-means").get
    }
    // Paper reports up to 168x at k=10^4, n=10^6; at 1/10 scale the factor
    // shrinks but must remain decisively > 3x on the best dataset.
    assert(speedups.max > 3.0, s"best speedup only ${speedups.max}")
  }

  test("Dask-means is the fastest algorithm at k=5000 in a majority of datasets") {
    val wins = rows.filter(_.k == 5000).count { r =>
      val dask = cell(r, "Dask-means").get
      r.cells.filter(c => c.algorithm != "Dask-means" && c.runtimeSec.isDefined)
        .forall(c => dask <= c.runtimeSec.get * 1.05)
    }
    assert(wins >= 3, s"Dask-means fastest in only $wins/6 datasets")
  }

  test("all completed algorithms agree on the SSE (exactness at scale)") {
    rows.foreach { r =>
      val done = r.cells.filter(_.runtimeSec.isDefined)
      val ref = done.head.sse
      done.foreach(c => assert(math.abs(c.sse - ref) / math.max(1.0, ref) < 1e-6,
        s"${r.dataset} k=${r.k} ${c.algorithm}"))
    }
  }

  test("record paper-vs-measured speedup summary") {
    val sb = new StringBuilder
    sb ++= "dataset    k      Lloyd(s)  Dask(s)   speedup\n"
    rows.foreach { r =>
      val l = cell(r, "Lloyd").get; val d = cell(r, "Dask-means").get
      sb ++= f"${r.dataset}%-10s ${r.k}%6d ${l}%9.2f ${d}%8.2f ${l / d}%8.1fx\n"
    }
    BenchOut.write("table_iv_speedups.txt", sb.result())
  }
}
