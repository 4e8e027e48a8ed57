package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core._

/** The correctness matrix: every accelerated algorithm is an *exact*
  * acceleration of Lloyd's — identical single-step assignments and
  * Lloyd-equal trajectories over full runs.
  */
class ExactnessSpec extends AnyFunSuite {

  private def suite(f: Int = 16): Seq[KMeansAlgo] = Seq(
    new NoBound,
    new DualTree,
    new Hamerly,
    new Drake,
    new Yinyang,
    new Elkan,
    new DaskMeans(useInterBound = false, leafCapacity = f),
    new DaskMeans(useKnn = false, leafCapacity = f),
    new DaskMeans(leafCapacity = f),
  )

  private val configs = Seq(
    // (n, d, centers, spread, k, seed)
    (600, 2, 8, 3.0, 5, 1L),
    (900, 3, 10, 5.0, 24, 2L),
    (1200, 2, 15, 1.5, 60, 3L),
    (500, 5, 6, 8.0, 11, 4L),
    (800, 3, 0, 0.0, 37, 5L), // uniform (centers=0 → uniform)
  )

  private def dataFor(c: (Int, Int, Int, Double, Int, Long)): Array[Array[Double]] = {
    val (n, d, centers, spread, _, seed) = c
    if (centers == 0) TestData.uniform(n, d, seed)
    else TestData.blobs(n, d, centers, spread, seed)
  }

  test("single assignment phase identical to Lloyd for every algorithm") {
    configs.foreach { c =>
      val (n, _, _, _, k, seed) = c
      val data = dataFor(c)
      val init = KMeans.initCentroids(data, k, seed)
      val ref = new Lloyd().run(data, k, 1, init)
      suite().foreach { algo =>
        val r = algo.run(data, k, 1, init)
        assert(
          r.assignments.sameElements(ref.assignments),
          s"${algo.name} diverges from Lloyd in one step (n=$n k=$k): " +
            s"first diff at ${r.assignments.zip(ref.assignments).indexWhere(p => p._1 != p._2)}",
        )
      }
    }
  }

  test("full runs match Lloyd's SSE, iterations, and centroids") {
    configs.foreach { c =>
      val (n, _, _, _, k, seed) = c
      val data = dataFor(c)
      val init = KMeans.initCentroids(data, k, seed)
      val ref = new Lloyd().run(data, k, 15, init)
      val refSse = ref.sse(data)
      suite().foreach { algo =>
        val r = algo.run(data, k, 15, init)
        assert(r.iterations == ref.iterations, s"${algo.name}: ${r.iterations} vs ${ref.iterations} iters (n=$n k=$k)")
        val err = math.abs(r.sse(data) - refSse) / math.max(1.0, refSse)
        assert(err < 1e-9, s"${algo.name}: SSE ${r.sse(data)} vs $refSse (n=$n k=$k)")
        r.centroids.indices.foreach { j =>
          assert(Vec.dist(r.centroids(j), ref.centroids(j)) < 1e-6,
            s"${algo.name}: centroid $j drifted (n=$n k=$k)")
        }
      }
    }
  }

  test("final assignments match Lloyd after multiple iterations") {
    val c = configs(1)
    val data = dataFor(c)
    val init = KMeans.initCentroids(data, c._5, c._6)
    val ref = new Lloyd().run(data, c._5, 10, init)
    suite().foreach { algo =>
      val r = algo.run(data, c._5, 10, init)
      val mismatches = r.assignments.zip(ref.assignments).count(p => p._1 != p._2)
      assert(mismatches == 0, s"${algo.name}: $mismatches assignment mismatches")
    }
  }

  test("all algorithms agree on k=2") {
    val data = TestData.blobs(300, 2, 2, 2.0, 7L)
    val init = KMeans.initCentroids(data, 2, 7L)
    val ref = new Lloyd().run(data, 2, 10, init)
    suite().foreach { algo =>
      val r = algo.run(data, 2, 10, init)
      assert(r.assignments.sameElements(ref.assignments), algo.name)
    }
  }

  test("empty clusters are handled identically (k close to n over blobs)") {
    val data = TestData.blobs(120, 2, 2, 0.3, 8L)
    val init = KMeans.initCentroids(data, 40, 8L)
    val ref = new Lloyd().run(data, 40, 8, init)
    suite(f = 4).foreach { algo =>
      val r = algo.run(data, 40, 8, init)
      val err = math.abs(r.sse(data) - ref.sse(data)) / math.max(1.0, ref.sse(data))
      assert(err < 1e-9, s"${algo.name}: SSE mismatch with emptied clusters")
    }
  }

  test("outputs pinned bit for bit on three fixed inputs") {
    // (input, initial centroids, leaf capacity). The last input draws its
    // initial centroids from the blobs and from the empty field around them,
    // so clusters start and end empty.
    val inputs = Seq(
      ("blobs-2d", TestData.blobs(600, 2, 8, 3.0, 11L), 12, 16),
      ("uniform-3d", TestData.uniform(500, 3, 12L), 20, 16),
      ("k-near-n", TestData.blobs(120, 2, 2, 0.3, 8L), 40, 4),
    ).map { case (label, data, k, f) =>
      val pool = if (label == "k-near-n") data ++ TestData.uniform(120, 2, 14L) else data
      (label, data, KMeans.initCentroids(pool, k, 13L), f)
    }
    val got = for ((label, data, init, f) <- inputs; algo <- new Lloyd +: suite(f)) yield {
      val k = init.length
      val r = algo.run(data, k, 15, init)
      if (label == "k-near-n") assert(r.assignments.distinct.length < k, s"${algo.name}: no cluster emptied")
      val centroidBits = java.util.Arrays.hashCode(r.centroids.flatten.map(java.lang.Double.doubleToLongBits))
      s"$label ${algo.name}" ->
        (r.iterations, r.distanceComputations, r.batchPrunedVectors, java.util.Arrays.hashCode(r.assignments), centroidBits)
    }
    // Recorded before the algorithms shared one iteration driver:
    // (iterations, distanceComputations, batchPrunedVectors,
    //  hash of assignments, hash of the centroids' bits). The NoInB and
    // Dask-means distances at f = 16 were re-recorded when the centroid
    // index's leaf capacity was capped at 8, and again when node and point
    // searches began from the candidate list inherited from the parent node
    // instead of the index's root (the old values are noted at each pin).
    // Every other column is as recorded.
    val pinned = Map(
      "blobs-2d Lloyd" -> (7, 50400L, 0L, -1480251820, -1399090600),
      "blobs-2d NoBound" -> (7, 11972L, 0L, -1480251820, -1399090600),
      "blobs-2d Dual-tree" -> (7, 11726L, 3731L, -1480251820, 1628291101),
      "blobs-2d Hamerly" -> (7, 11040L, 0L, -1480251820, -1399090600),
      "blobs-2d Drake" -> (7, 13761L, 0L, -1480251820, -1399090600),
      "blobs-2d Yinyang" -> (7, 13435L, 0L, -1480251820, -1399090600),
      "blobs-2d Elkan" -> (7, 8327L, 0L, -1480251820, -1399090600),
      "blobs-2d NoInB" -> (7, 7581L, 3100L, -1480251820, -477424498), // 17483 from the root
      "blobs-2d NokNN" -> (7, 12771L, 3559L, -1480251820, -477424498),
      "blobs-2d Dask-means" -> (7, 6471L, 3559L, -1480251820, -477424498), // 12710 from the root
      "uniform-3d Lloyd" -> (15, 150000L, 0L, 1277096196, 2022628712),
      "uniform-3d NoBound" -> (15, 33557L, 0L, 1277096196, 2022628712),
      "uniform-3d Dual-tree" -> (15, 109503L, 4673L, 1277096196, -371244386),
      "uniform-3d Hamerly" -> (15, 57055L, 0L, 1277096196, 2022628712),
      "uniform-3d Drake" -> (15, 31936L, 0L, 1277096196, 2022628712),
      "uniform-3d Yinyang" -> (15, 41255L, 0L, 1277096196, 2022628712),
      "uniform-3d Elkan" -> (15, 16313L, 0L, 1277096196, 2022628712),
      "uniform-3d NoInB" -> (15, 101529L, 7L, 1277096196, 1641400210), // 173146 from the root
      "uniform-3d NokNN" -> (15, 128395L, 2842L, 1277096196, 1641400210),
      "uniform-3d Dask-means" -> (15, 83647L, 2842L, 1277096196, 1641400210), // 130037 from the root
      "k-near-n Lloyd" -> (7, 33600L, 0L, 1825838049, -1261095380),
      "k-near-n NoBound" -> (7, 10760L, 0L, 1825838049, -1261095380),
      "k-near-n Dual-tree" -> (7, 33548L, 328L, 1825838049, 1046104948),
      "k-near-n Hamerly" -> (7, 23447L, 0L, 1825838049, -1261095380),
      "k-near-n Drake" -> (7, 8271L, 0L, 1825838049, -1261095380),
      "k-near-n Yinyang" -> (7, 9520L, 0L, 1825838049, -1261095380),
      "k-near-n Elkan" -> (7, 10639L, 0L, 1825838049, -1261095380),
      "k-near-n NoInB" -> (7, 7083L, 272L, 1825838049, -1568294254), // 26049 from the root
      "k-near-n NokNN" -> (7, 43746L, 545L, 1825838049, -1568294254),
      "k-near-n Dask-means" -> (7, 11511L, 545L, 1825838049, -1568294254), // 25156 from the root
    )
    assert(got.map(_._1).toSet == pinned.keySet)
    got.foreach { case (key, out) => assert(out == pinned(key), key) }
  }

  test("accelerators compute no more distances than Lloyd on clusterable data") {
    val data = TestData.blobs(3000, 2, 25, 1.0, 9L)
    val k = 50
    val init = KMeans.initCentroids(data, k, 9L)
    val ref = new Lloyd().run(data, k, 10, init)
    for (algo <- Seq(new Hamerly, new Elkan, new Yinyang, new DaskMeans(): KMeansAlgo)) {
      val r = algo.run(data, k, 10, init)
      assert(r.distanceComputations < ref.distanceComputations,
        s"${algo.name}: ${r.distanceComputations} >= Lloyd ${ref.distanceComputations}")
    }
  }
}
