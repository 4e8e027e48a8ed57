package repro.tables

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class AlgoSuiteSpec extends AnyFunSuite {

  test("runAll fills every column in the paper's order at Lloyd's SSE") {
    val data = TestData.blobs(1500, 2, 10, 2.0, seed = 23)
    val cells = AlgoSuite.runAll(data, 12, 5)
    assert(cells.map(_.algorithm) == Seq(
      "Lloyd", "NoBound", "Dual-tree", "Hamerly", "Drake", "Yinyang", "Elkan", "NoInB", "NokNN", "Dask-means"))
    assert(cells.forall(_.runtimeSec.isDefined))
    val lloyd = cells.head.sse
    cells.foreach(c => assert(math.abs(c.sse - lloyd) <= 1e-6, s"${c.algorithm}: ${c.sse} vs $lloyd"))
  }
}
