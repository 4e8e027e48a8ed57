package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.baselines.Lloyd

class DaskMeansSpec extends AnyFunSuite {

  private def lloyd = new Lloyd

  private def relErr(a: Double, b: Double): Double =
    math.abs(a - b) / math.max(1.0, math.abs(b))

  test("single assignment phase equals brute-force nearest centroid") {
    for ((n, k, d, f) <- Seq((500, 7, 2, 8), (800, 25, 3, 16), (300, 3, 5, 4), (1000, 60, 2, 30))) {
      val data = TestData.blobs(n, d, centers = 10, spread = 4.0, seed = n + k)
      val init = KMeans.initCentroids(data, k, seed = 1)
      val dm = new DaskMeans(leafCapacity = f).run(data, k, maxIters = 1, init)
      val ll = lloyd.run(data, k, maxIters = 1, init)
      assert(dm.assignments.sameElements(ll.assignments), s"n=$n k=$k d=$d f=$f")
    }
  }

  test("full run matches Lloyd's centroids and SSE") {
    for ((n, k, seed) <- Seq((600, 5, 1L), (1200, 20, 2L), (900, 50, 3L))) {
      val data = TestData.blobs(n, 3, centers = 12, spread = 5.0, seed = seed)
      val init = KMeans.initCentroids(data, k, seed)
      val dm = new DaskMeans().run(data, k, maxIters = 15, init)
      val ll = lloyd.run(data, k, maxIters = 15, init)
      assert(dm.iterations == ll.iterations, s"iterations ${dm.iterations} vs ${ll.iterations}")
      assert(relErr(dm.sse(data), ll.sse(data)) < 1e-9, s"SSE ${dm.sse(data)} vs ${ll.sse(data)}")
      dm.centroids.indices.foreach { j =>
        assert(Vec.dist(dm.centroids(j), ll.centroids(j)) < 1e-6)
      }
    }
  }

  test("NoInB ablation (kNN only) is exact") {
    val data = TestData.blobs(1000, 2, 8, 4.0, seed = 4)
    val init = KMeans.initCentroids(data, 30, 4)
    val ab = new DaskMeans(useInterBound = false).run(data, 30, 12, init)
    val ll = lloyd.run(data, 30, 12, init)
    assert(relErr(ab.sse(data), ll.sse(data)) < 1e-9)
  }

  test("NokNN ablation (inter bound only) is exact") {
    val data = TestData.blobs(1000, 2, 8, 4.0, seed = 5)
    val init = KMeans.initCentroids(data, 30, 5)
    val ab = new DaskMeans(useKnn = false).run(data, 30, 12, init)
    val ll = lloyd.run(data, 30, 12, init)
    assert(relErr(ab.sse(data), ll.sse(data)) < 1e-9)
  }

  test("uniform (hard) data is still exact") {
    val data = TestData.uniform(800, 3, 6)
    val init = KMeans.initCentroids(data, 40, 6)
    val dm = new DaskMeans(leafCapacity = 10).run(data, 40, 10, init)
    val ll = lloyd.run(data, 40, 10, init)
    assert(relErr(dm.sse(data), ll.sse(data)) < 1e-9)
  }

  test("computes far fewer distances than Lloyd on clusterable data") {
    val data = TestData.blobs(5000, 2, 30, 1.0, seed = 7)
    val init = KMeans.initCentroids(data, 100, 7)
    val dm = new DaskMeans().run(data, 100, 10, init)
    val ll = lloyd.run(data, 100, 10, init)
    assert(dm.distanceComputations < ll.distanceComputations / 4,
      s"dask=${dm.distanceComputations} lloyd=${ll.distanceComputations}")
  }

  test("batch pruning actually fires") {
    val data = TestData.blobs(3000, 2, 20, 0.8, seed = 8)
    val init = KMeans.initCentroids(data, 40, 8)
    val dm = new DaskMeans().run(data, 40, 10, init)
    assert(dm.batchPrunedVectors > 0)
    assert(dm.batchPrunedVectors <= 3000L * dm.iterations)
  }

  test("prebuilt tree is reused and produces identical results") {
    val data = TestData.blobs(700, 3, 6, 3.0, seed = 9)
    val tree = BallTree.build(data, 30)
    val init = KMeans.initCentroids(data, 12, 9)
    val a = new DaskMeans(prebuilt = Some(tree)).run(data, 12, 10, init)
    val b = new DaskMeans().run(data, 12, 10, init)
    assert(a.sse(data) == b.sse(data))
    assert(a.assignments.sameElements(b.assignments))
  }

  test("k=1 assigns everything to the single cluster") {
    val data = TestData.uniform(200, 2, 10)
    val r = new DaskMeans().run(data, 1, 5, KMeans.initCentroids(data, 1, 10))
    assert(r.assignments.forall(_ == 0))
    val mean = TestData.mean(data.toIndexedSeq)
    r.centroids(0).indices.foreach(i => assert(math.abs(r.centroids(0)(i) - mean(i)) < 1e-7))
  }

  test("k=n converges with every point its own cluster") {
    val data = TestData.uniform(50, 2, 11)
    val init = KMeans.initCentroids(data, 50, 11)
    val r = new DaskMeans().run(data, 50, 10, init)
    val ll = lloyd.run(data, 50, 10, init)
    assert(relErr(r.sse(data), ll.sse(data)) < 1e-9)
  }

  test("converges early on already-converged input") {
    val data = TestData.blobs(400, 2, 4, 0.5, seed = 12)
    val init = KMeans.initCentroids(data, 4, 12)
    val first = new DaskMeans().run(data, 4, 50, init)
    assert(first.iterations < 50, "should converge before the cap")
    // running again from the converged centroids stops after one iteration
    val again = new DaskMeans().run(data, 4, 50, first.centroids)
    assert(again.iterations == 1)
  }

  test("per-iteration runtimes are recorded") {
    val data = TestData.uniform(500, 2, 13)
    val r = new DaskMeans().run(data, 10, 6, KMeans.initCentroids(data, 10, 13))
    assert(r.iterMs.length == r.iterations)
    assert(r.iterMs.forall(_ >= 0.0))
    assert(r.totalMs >= r.initMs)
  }

  test("names reflect the ablation flags") {
    assert(new DaskMeans().name == "Dask-means")
    assert(new DaskMeans(useInterBound = false).name == "NoInB")
    assert(new DaskMeans(useKnn = false).name == "NokNN")
  }

  test("turning off both the centroid index and the inter bounds is rejected") {
    intercept[IllegalArgumentException](new DaskMeans(useKnn = false, useInterBound = false))
  }

  test("memory accounting follows Eq. 11") {
    val dm = new DaskMeans(leafCapacity = 30)
    val got = dm.extraMemoryFloats(100000, 1000, 3)
    val want = repro.estimator.MemoryEstimator.daskMeansExtraFloats(100000, 1000, 3, 30)
    assert(got == want)
  }

  test("maxIters must be positive") {
    val data = TestData.uniform(10, 2, 14)
    intercept[IllegalArgumentException] {
      new DaskMeans().run(data, 2, 0, KMeans.initCentroids(data, 2, 14))
    }
  }
}
