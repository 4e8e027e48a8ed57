package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core._

/** Per-algorithm unit checks: names, memory profiles (which drive the
  * device gate and the paper's N/A cells), and bookkeeping invariants.
  */
class BaselineUnitSpec extends AnyFunSuite {

  private val data = TestData.blobs(400, 3, 5, 3.0, seed = 42)
  private def init(k: Int) = KMeans.initCentroids(data, k, 42)

  test("algorithm names match the paper's column labels") {
    assert(new Lloyd().name == "Lloyd")
    assert(new NoBound().name == "NoBound")
    assert(new DualTree().name == "Dual-tree")
    assert(new Hamerly().name == "Hamerly")
    assert(new Drake().name == "Drake")
    assert(new Yinyang().name == "Yinyang")
    assert(new Elkan().name == "Elkan")
  }

  test("Elkan's memory is Θ(n·k) — the gate that produces N/A at large k") {
    val m1 = new Elkan().extraMemoryFloats(1000, 10, 3)
    val m2 = new Elkan().extraMemoryFloats(1000, 1000, 3)
    assert(m2 > 50 * m1)
    assert(m2 >= 1000L * 1000)
  }

  test("Drake stores ~k/4 bounds per point") {
    val d = new Drake
    assert(d.b(100) == 25 && d.b(8) == 2 && d.b(2) == 1)
    assert(d.extraMemoryFloats(1000, 100, 3) >= 2L * 1000 * 25)
  }

  test("Yinyang groups k centroids into ~k/10 groups") {
    val y = new Yinyang
    assert(y.groupsOf(100) == 10 && y.groupsOf(5) == 1 && y.groupsOf(101) == 11)
    assert(y.extraMemoryFloats(1000, 100, 3) >= 1000L * 10)
  }

  test("Hamerly keeps exactly two bounds per point") {
    assert(new Hamerly().extraMemoryFloats(1000, 50, 3) == 2 * 1000 + 50)
  }

  test("NoBound's bookkeeping is Θ(k²) not Θ(n·k)") {
    val nb = new NoBound
    assert(nb.extraMemoryFloats(100000, 100, 3) < new Elkan().extraMemoryFloats(100000, 100, 3))
    assert(nb.extraMemoryFloats(10, 1000, 3) >= 1000L * 1000)
  }

  test("memory ranking matches the paper's Fig. 9: Elkan/Drake ≫ Yinyang ≫ Dask-means/Hamerly/NoBound") {
    val n = 1_000_000L; val k = 1000L; val d = 3L
    val elkan = new Elkan().extraMemoryFloats(n, k, d)
    val drake = new Drake().extraMemoryFloats(n, k, d)
    val yinyang = new Yinyang().extraMemoryFloats(n, k, d)
    val dask = new DaskMeans().extraMemoryFloats(n, k, d)
    val hamerly = new Hamerly().extraMemoryFloats(n, k, d)
    assert(elkan > 4 * yinyang && drake > 4 * yinyang)
    assert(yinyang > dask && yinyang > hamerly)
    assert(dask < elkan / 100, "paper: Dask-means uses <1% of Elkan's memory")
  }

  test("every baseline records per-iteration runtimes and iteration counts") {
    val algos: Seq[KMeansAlgo] = Seq(new Lloyd, new NoBound, new DualTree(), new Hamerly,
      new Drake, new Yinyang, new Elkan)
    algos.foreach { a =>
      val r = a.run(data, 8, 5, init(8))
      assert(r.iterations >= 1 && r.iterations <= 5, a.name)
      assert(r.iterMs.length == r.iterations, a.name)
      assert(r.assignments.forall(c => c >= 0 && c < 8), a.name)
    }
  }

  test("every baseline counts distance computations") {
    val algos: Seq[KMeansAlgo] = Seq(new Lloyd, new NoBound, new DualTree(), new Hamerly,
      new Drake, new Yinyang, new Elkan)
    algos.foreach { a =>
      val r = a.run(data, 8, 3, init(8))
      assert(r.distanceComputations > 0, a.name)
    }
  }

  test("Lloyd computes exactly n·k distances per iteration") {
    val r = new Lloyd().run(data, 8, 3, init(8))
    assert(r.distanceComputations == 400L * 8 * r.iterations)
  }

  test("Dual-tree batch pruning fires on clusterable data") {
    val blobs = TestData.blobs(2000, 2, 10, 0.5, seed = 1)
    val r = new DualTree().run(blobs, 10, 6, KMeans.initCentroids(blobs, 10, 1))
    assert(r.batchPrunedVectors > 0)
  }

  test("all baselines reject maxIters < 1") {
    val algos: Seq[KMeansAlgo] = Seq(new Lloyd, new NoBound, new DualTree(), new Hamerly,
      new Drake, new Yinyang, new Elkan)
    algos.foreach { a =>
      intercept[IllegalArgumentException](a.run(data, 4, 0, init(4)))
    }
  }

  test("all ten algorithms reject invalid input before the init phase") {
    val algos: Seq[KMeansAlgo] = Seq(new Lloyd, new NoBound, new DualTree(), new Hamerly,
      new Drake, new Yinyang, new Elkan, new DaskMeans(), new DaskMeans(useInterBound = false),
      new DaskMeans(useKnn = false))
    val withNaN = data.map(_.clone()); withNaN(17)(1) = Double.NaN
    val withInf = init(4).map(_.clone()); withInf(2)(0) = Double.PositiveInfinity
    val cases = Seq( // (expected message, data, k, initial centroids)
      ("data point", Array.empty[Array[Double]], 1, Array(Array(0.0, 0.0, 0.0))),
      ("initial centroids, got", data, 4, init(3)),
      ("k <= n", data.take(3), 4, init(4)),
      ("data has a NaN", withNaN, 4, init(4)),
      ("initial centroids have a NaN", data, 4, withInf),
    )
    for (a <- algos; (msg, xs, k, start) <- cases) {
      val e = intercept[IllegalArgumentException](a.run(xs, k, 5, start))
      assert(e.getMessage.contains(msg), s"${a.name}: ${e.getMessage}")
    }
  }
}
