package repro.spark

import repro.SparkSpec
import repro.baselines.Lloyd
import repro.core.{KMeans, Vec}
import repro.spatial.SpatialData

class DistributedDaskMeansSpec extends SparkSpec {

  private def fixture(n: Int, name: String = "Argo-PC") = {
    val df = SpatialData.dataset(spark, name, n)
    val data = SpatialData.collectPoints(df)
    (df, data)
  }

  test("distributed run matches serial Lloyd from the same init") {
    val (df, data) = fixture(3000)
    val k = 20
    val init = KMeans.initCentroids(data, k, 1L)
    val fitted = DistributedDaskMeans.fit(df, k, maxIters = 8, numPartitions = 6, init = Some(init))
    try {
      val ref = new Lloyd().run(data, k, 8, init)
      assert(fitted.iterations == ref.iterations)
      fitted.centroids.indices.foreach { j =>
        assert(Vec.dist(fitted.centroids(j), ref.centroids(j)) < 1e-6, s"centroid $j")
      }
    } finally DistributedDaskMeans.cleanup(fitted)
  }

  test("partition count does not change the result") {
    val (df, data) = fixture(2000, "T-drive")
    val k = 12
    val init = KMeans.initCentroids(data, k, 2L)
    val a = DistributedDaskMeans.fit(df, k, 6, numPartitions = 2, init = Some(init))
    val b = DistributedDaskMeans.fit(df, k, 6, numPartitions = 8, init = Some(init))
    try {
      a.centroids.indices.foreach { j =>
        assert(Vec.dist(a.centroids(j), b.centroids(j)) < 1e-6)
      }
    } finally { DistributedDaskMeans.cleanup(a); DistributedDaskMeans.cleanup(b) }
  }

  test("assignments DataFrame matches brute-force nearest centroid") {
    val (df, data) = fixture(1500, "3D-RD")
    val k = 10
    val init = KMeans.initCentroids(data, k, 3L)
    val fitted = DistributedDaskMeans.fit(df, k, 5, numPartitions = 4, init = Some(init))
    try {
      val assigned = DistributedDaskMeans.assignments(df, fitted)
        .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
      assert(assigned.size == 1500)
      // spot check a sample against brute force on the final centroids
      val ref = new Lloyd().run(data, k, 5, init)
      val mismatches = data.indices.count(i => assigned(i.toLong) != ref.assignments(i))
      assert(mismatches == 0, s"$mismatches mismatched assignments")
    } finally DistributedDaskMeans.cleanup(fitted)
  }

  test("assignments use the fit's partition count and the last assignment phase") {
    val (df, data) = fixture(1500, "Argo-PC")
    val k = 10
    val init = KMeans.initCentroids(data, k, 8L)
    val fitted = DistributedDaskMeans.fit(df, k, 3, numPartitions = 3, init = Some(init))
    try {
      val ref = new Lloyd().run(data, k, 3, init)
      // Not converged: the final centroids would move some vectors.
      assert(data.indices.exists(i => Vec.nearest(data(i), ref.centroids) != ref.assignments(i)))
      val assigned = DistributedDaskMeans.assignments(df, fitted)
        .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
      val mismatches = data.indices.count(i => assigned(i.toLong) != ref.assignments(i))
      assert(mismatches == 0, s"$mismatches mismatched assignments")
      val sizes = new Array[Long](k)
      ref.assignments.foreach(a => sizes(a) += 1)
      assert(fitted.counts.sameElements(sizes))
    } finally DistributedDaskMeans.cleanup(fitted)
  }

  test("fit rejects maxIters < 1 before building any partition state") {
    val (df, _) = fixture(300, "Porto")
    val before = PartitionIndexCache.size
    val e = intercept[IllegalArgumentException](DistributedDaskMeans.fit(df, 5, 0, numPartitions = 2))
    assert(e.getMessage.contains("need at least one iteration"))
    assert(PartitionIndexCache.size == before)
  }

  test("cleanup drops the partition cache") {
    val (df, _) = fixture(800, "Porto")
    val before = PartitionIndexCache.size
    val fitted = DistributedDaskMeans.fit(df, 5, 3, numPartitions = 3)
    assert(PartitionIndexCache.size > before)
    DistributedDaskMeans.cleanup(fitted)
    assert(PartitionIndexCache.size == before)
  }

  test("deterministic seeded initial centroids") {
    val (df, _) = fixture(500, "T-drive")
    val a = DistributedDaskMeans.initialCentroids(df, 7, 5L)
    val b = DistributedDaskMeans.initialCentroids(df, 7, 5L)
    a.indices.foreach(i => assert(a(i).sameElements(b(i))))
    val c = DistributedDaskMeans.initialCentroids(df, 7, 6L)
    assert(a.zip(c).exists { case (x, y) => !x.sameElements(y) })
  }

  test("batch pruning fires in the distributed operator") {
    val (df, _) = fixture(4000, "Argo-AVL")
    val fitted = DistributedDaskMeans.fit(df, 15, 6, numPartitions = 4)
    try assert(fitted.batchPrunedVectors > 0)
    finally DistributedDaskMeans.cleanup(fitted)
  }

  test("pruned vectors are counted when cluster 0 is empty in every partition") {
    val (df, data) = fixture(4000, "Argo-AVL")
    val init = KMeans.initCentroids(data, 15, 6L)
    init(0) = init(0).map(_ + 1e6)
    val fitted = DistributedDaskMeans.fit(df, 15, 6, numPartitions = 4, init = Some(init))
    try assert(fitted.batchPrunedVectors > 0)
    finally DistributedDaskMeans.cleanup(fitted)
  }

  test("a fit that throws drops its partition cache") {
    val (df, data) = fixture(800, "Porto")
    val before = PartitionIndexCache.size
    // One dimension short: the per-partition step throws after the tree is cached.
    val init = KMeans.initCentroids(data, 5, 7L).map(_.init)
    intercept[Exception](DistributedDaskMeans.fit(df, 5, 3, numPartitions = 1, init = Some(init)))
    assert(PartitionIndexCache.size == before)
  }

  test("sse agrees with a serial computation") {
    val (df, data) = fixture(1000, "Shapenet")
    val k = 8
    val init = KMeans.initCentroids(data, k, 4L)
    val fitted = DistributedDaskMeans.fit(df, k, 4, numPartitions = 4, init = Some(init))
    try {
      val dist = DistributedDaskMeans.sse(df, fitted.centroids)
      val serial = data.map { p =>
        fitted.centroids.map(c => Vec.dist2(p, c)).min
      }.sum
      assert(math.abs(dist - serial) / math.max(1.0, serial) < 1e-9)
    } finally DistributedDaskMeans.cleanup(fitted)
  }

  test("MLlib baseline reaches a comparable SSE on the same data") {
    val (df, data) = fixture(2000, "Argo-PC")
    val k = 10
    val init = KMeans.initCentroids(data, k, 5L)
    val fitted = DistributedDaskMeans.fit(df, k, 10, numPartitions = 4, init = Some(init))
    DistributedDaskMeans.cleanup(fitted)
    val ours = DistributedDaskMeans.sse(df, fitted.centroids)
    val ml = MllibLloyd.fit(df, k, 10)
    // different inits: costs need not match, but must be the same order
    assert(ml.trainingCost > 0 && ours > 0)
    assert(ours < ml.trainingCost * 3 && ml.trainingCost < ours * 3,
      s"ours=$ours mllib=${ml.trainingCost}")
  }
}
