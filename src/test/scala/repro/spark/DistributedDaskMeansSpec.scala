package repro.spark

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, lit, xxhash64}
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.baselines.Lloyd
import repro.core.{DaskMeans, KMeans, Vec}
import repro.spatial.SpatialData

import java.util.concurrent.atomic.AtomicInteger
import scala.reflect.ClassTag

class DistributedDaskMeansSpec extends SparkSpec {

  private def fixture(n: Int, name: String = "Argo-PC") = {
    val df = SpatialData.dataset(spark, name, n)
    val data = SpatialData.collectPoints(df)
    (df, data)
  }

  /** `body` throws a `T` whose message holds `message`, and leaves no
    * partition state behind.
    */
  private def rejects[T <: Throwable: ClassTag](message: String)(body: => Any): Unit = {
    val before = PartitionIndexCache.size
    val e = intercept[T](body)
    assert(e.getMessage.contains(message), e.getMessage)
    assert(PartitionIndexCache.size == before)
  }

  private def frame(rows: Seq[Seq[Double]]) =
    spark.createDataFrame(rows.zipWithIndex.map { case (p, i) => (i.toLong, p) }).toDF("id", "features")

  private def bits(cs: Array[Array[Double]]): Seq[Seq[Long]] =
    cs.map(_.map(java.lang.Double.doubleToLongBits).toSeq).toSeq

  /** Everything a fit returns that does not depend on its run id. */
  private def outcome(f: DistributedDaskMeans.FitResult) = {
    val distances = (0 until f.numPartitions).flatMap(PartitionIndexCache.get(f.runId, _)).map(_.counter.count).sum
    (bits(f.centroids), f.iterations, f.batchPrunedVectors, f.counts.toSeq, distances)
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
    rejects[IllegalArgumentException]("need at least one iteration") {
      DistributedDaskMeans.fit(df, 5, 0, numPartitions = 2)
    }
  }

  test("fit rejects k < 1 before building any partition state") {
    val (df, _) = fixture(300, "Porto")
    Seq(0, -1).foreach { k =>
      rejects[IllegalArgumentException](s"need 1 <= k <= n, got k=$k") {
        DistributedDaskMeans.fit(df, k, 3, numPartitions = 2)
      }
    }
  }

  test("fit rejects initial centroids of the wrong count or with a non-finite coordinate") {
    val (df, data) = fixture(300, "Porto")
    val init = KMeans.initCentroids(data, 5, 7L)
    rejects[IllegalArgumentException]("need k=5 initial centroids, got 4") {
      DistributedDaskMeans.fit(df, 5, 3, numPartitions = 2, init = Some(init.init))
    }
    Seq(Double.NaN, Double.PositiveInfinity).foreach { bad =>
      val broken = init.map(_.clone)
      broken(2)(1) = bad
      rejects[IllegalArgumentException]("initial centroids have a NaN or infinite coordinate") {
        DistributedDaskMeans.fit(df, 5, 3, numPartitions = 2, init = Some(broken))
      }
    }
  }

  test("fit rejects a NaN or infinite coordinate in the data") {
    val (_, data) = fixture(300, "Porto")
    val init = KMeans.initCentroids(data, 5, 7L)
    Seq(Double.NaN, Double.NegativeInfinity).foreach { bad =>
      val df = frame(data.toSeq.map(_.toSeq) :+ Seq(1.0, bad))
      // One partition, so no other task can race the drop on failure.
      // Without init the first job, which picks the initial centroids, fails.
      rejects[Exception]("data has a NaN or infinite coordinate") {
        DistributedDaskMeans.fit(df, 5, 3, numPartitions = 1, init = Some(init))
      }
      rejects[Exception]("data has a NaN or infinite coordinate") {
        DistributedDaskMeans.fit(df, 5, 3, numPartitions = 1)
      }
    }
  }

  test("fit rejects a null id, features array or coordinate") {
    val schema = StructType(Seq(StructField("id", LongType), StructField("features", ArrayType(DoubleType))))
    val good = Seq(Row(0L, Seq(0.0, 0.0)), Row(1L, Seq(1.0, 0.0)), Row(2L, Seq(0.0, 1.0)))
    val init = Array(Array(0.0, 0.0), Array(1.0, 1.0))
    Seq(
      Row(3L, null) -> "data has a null coordinate",
      Row(3L, Seq(1.0, null)) -> "data has a null coordinate",
      Row(null, Seq(1.0, 1.0)) -> "data has a null id",
    ).foreach { case (bad, message) =>
      val df = spark.createDataFrame(java.util.Arrays.asList(good :+ bad: _*), schema)
      rejects[Exception](message)(DistributedDaskMeans.initialCentroids(df, 2, 1L))
      // One partition, so no other task can race the drop on failure.
      rejects[Exception](message)(DistributedDaskMeans.fit(df, 2, 3, numPartitions = 1))
      rejects[Exception](message)(DistributedDaskMeans.fit(df, 2, 3, numPartitions = 1, init = Some(init)))
    }
  }

  test("an int id and float features give the results of their long and double casts") {
    val (df, _) = fixture(1500, "Porto")
    val narrow = df.select(col("id").cast("int").as("id"), col("features").cast("array<float>").as("features"))
    val wide = narrow.select(col("id").cast("long").as("id"), col("features").cast("array<double>").as("features"))
    val (k, seed) = (12, 4L)
    assert(bits(DistributedDaskMeans.initialCentroids(narrow, k, seed)) ==
      bits(DistributedDaskMeans.initialCentroids(wide, k, seed)))
    val init = DistributedDaskMeans.initialCentroids(wide, k, seed)
    Seq(None, Some(init)).foreach { start =>
      val Seq(a, b) = Seq(narrow, wide).map(DistributedDaskMeans.fit(_, k, 6, numPartitions = 3, seed = seed, init = start))
      try {
        assert(outcome(a) == outcome(b), s"init = $start")
        def assigned(in: DataFrame, f: DistributedDaskMeans.FitResult) =
          DistributedDaskMeans.assignments(in, f).collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
        assert(assigned(narrow, a) == assigned(wide, b))
      } finally { DistributedDaskMeans.cleanup(a); DistributedDaskMeans.cleanup(b) }
    }
  }

  test("initialCentroids is the SQL hash sample, and a fit without init starts from it") {
    // (dataset, n, k, partitions, maxIters, seed); "3D-RD" at 40 rows over 32
    // partitions leaves partitions empty.
    val inputs = Seq(
      ("Argo-PC", 6000, 40, 3, 8, 1L),
      ("T-drive", 5000, 60, 4, 6, 2L),
      ("Porto", 3000, 25, 5, 10, 9L),
      ("3D-RD", 40, 4, 32, 5, 3L),
    )
    inputs.foreach { case key @ (name, n, k, parts, maxIters, seed) =>
      val (df, _) = fixture(n, name)
      val sql = df.orderBy(xxhash64(col("id"), lit(seed))).limit(k)
        .select("features").collect().map(_.getSeq[Double](0).toArray)
      val init = DistributedDaskMeans.initialCentroids(df.repartition(parts, col("id")), k, seed)
      assert(bits(init) == bits(sql), key)
      val Seq(picked, given) = Seq(None, Some(init))
        .map(start => DistributedDaskMeans.fit(df, k, maxIters, numPartitions = parts, seed = seed, init = start))
      try assert(outcome(picked) == outcome(given), key)
      finally { DistributedDaskMeans.cleanup(picked); DistributedDaskMeans.cleanup(given) }
    }
  }

  test("fit rejects k > n") {
    val df = frame(Seq(Seq(0.0, 0.0), Seq(1.0, 0.0), Seq(0.0, 1.0)))
    val init = Array(Array(0.0, 0.0), Array(1.0, 1.0), Array(2.0, 2.0), Array(3.0, 3.0), Array(4.0, 4.0))
    rejects[IllegalArgumentException]("need 1 <= k <= n, got k=5 n=3") {
      DistributedDaskMeans.fit(df, 5, 3, numPartitions = 2, init = Some(init))
    }
    rejects[IllegalArgumentException]("need 1 <= k <= n, got k=5 n=3") {
      DistributedDaskMeans.fit(df, 5, 3, numPartitions = 2)
    }
  }

  test("cleanup drops the partition cache") {
    val (df, _) = fixture(800, "Porto")
    val before = PartitionIndexCache.size
    val fitted = DistributedDaskMeans.fit(df, 5, 3, numPartitions = 3)
    assert(PartitionIndexCache.size > before)
    DistributedDaskMeans.cleanup(fitted)
    assert(PartitionIndexCache.size == before)
  }

  test("assignments after cleanup fail instead of guessing") {
    val (df, data) = fixture(800, "Porto")
    val init = KMeans.initCentroids(data, 5, 7L)
    val fitted = DistributedDaskMeans.fit(df, 5, 3, numPartitions = 3, init = Some(init))
    DistributedDaskMeans.cleanup(fitted)
    val e = intercept[Exception](DistributedDaskMeans.assignments(df, fitted).collect())
    assert(e.getMessage.contains("call assignments before cleanup"), e.getMessage)
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

  test("k = 1, a one-leaf and a two-leaf centroid index fit as serial Dask-means does") {
    val (df, data) = fixture(1500, "Porto")
    for (k <- Seq(1, 8, 9)) { // the centroid index has one leaf up to k = 8
      val init = KMeans.initCentroids(data, k, k.toLong)
      val ref = new DaskMeans().run(data, k, 6, init)
      val fitted = DistributedDaskMeans.fit(df, k, 6, numPartitions = 3, init = Some(init))
      try {
        assert(fitted.iterations == ref.iterations && (k == 1 || ref.iterations >= 3), s"k=$k")
        fitted.centroids.indices.foreach(j => assert(Vec.dist(fitted.centroids(j), ref.centroids(j)) < 1e-9, s"k=$k centroid $j"))
        val assigned = DistributedDaskMeans.assignments(df, fitted).collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
        assert(data.indices.forall(i => assigned(i.toLong) == ref.assignments(i)), s"k=$k")
        val sizes = new Array[Long](k)
        ref.assignments.foreach(a => sizes(a) += 1)
        assert(fitted.counts.sameElements(sizes), s"k=$k")
      } finally DistributedDaskMeans.cleanup(fitted)
      assert(PartitionIndexCache.size == 0, s"k=$k")
    }
  }

  test("fit outputs pinned bit for bit on five fixed inputs") {
    // (dataset, n, k, partitions, maxIters, seed). "3D-RD" at 40 rows over
    // 32 partitions leaves partitions empty; the "Argo-AVL" input moves
    // init(0) far away, so cluster 0 empties in every partition.
    val inputs = Seq(
      ("Argo-PC", 6000, 40, 3, 8, 1L),
      ("T-drive", 5000, 60, 4, 6, 2L),
      ("Porto", 3000, 25, 5, 10, 9L),
      ("3D-RD", 40, 4, 32, 5, 3L),
      ("Argo-AVL", 4000, 15, 4, 6, 6L),
    )
    val got = inputs.map { case key @ (name, n, k, parts, maxIters, seed) =>
      val (df, data) = fixture(n, name)
      val init = KMeans.initCentroids(data, k, seed)
      if (name == "Argo-AVL") init(0) = init(0).map(_ + 1e6)
      val fitted = DistributedDaskMeans.fit(df, k, maxIters, numPartitions = parts, init = Some(init))
      try {
        val entries = (0 until parts).flatMap(PartitionIndexCache.get(fitted.runId, _))
        if (name == "3D-RD") assert(entries.exists(_.state == null), "no partition is empty")
        if (name == "Argo-AVL") assert(fitted.counts(0) == 0, "cluster 0 did not empty")
        val centroidBits = java.util.Arrays.hashCode(fitted.centroids.flatten.map(java.lang.Double.doubleToLongBits))
        key -> (fitted.iterations, fitted.batchPrunedVectors, java.util.Arrays.hashCode(fitted.counts),
          centroidBits, entries.map(_.counter.count).sum)
      } finally DistributedDaskMeans.cleanup(fitted)
    }
    // Recorded before the fit became one RDD job per iteration:
    // (iterations, batchPrunedVectors, hash of counts, hash of the
    //  centroids' bits, distances summed over the partition counters).
    // The distances of the inputs with k > 8 were re-recorded when the
    // centroid index's leaf capacity was capped at 8, and all of them when
    // node and point searches began from the candidate list inherited from
    // the parent node instead of the index's root, and again when a search
    // stopped measuring its seed centroid a second time (the old values are
    // noted at each pin; 3D-RD's one-leaf index is replaced by its
    // centroids). Every other column is as recorded.
    val pinned = Map(
      ("Argo-PC", 6000, 40, 3, 8, 1L) -> (8, 27414L, 633388187, -2065749010, 232734L), // 247926 measuring the seed; 551182 from the root
      ("T-drive", 5000, 60, 4, 6, 2L) -> (6, 15013L, -1613167283, 1823219830, 224298L), // 234322 measuring the seed; 418966 from the root
      ("Porto", 3000, 25, 5, 10, 9L) -> (10, 18215L, -356922481, 543354841, 145701L), // 154545 measuring the seed; 253585 from the root
      ("3D-RD", 40, 4, 32, 5, 3L) -> (4, 102L, 1172861, 266359331, 556L), // 590 measuring the seed; 608 from the root
      ("Argo-AVL", 4000, 15, 4, 6, 6L) -> (6, 13709L, -2005940573, 1014948673, 80954L), // 87885 measuring the seed; 192926 from the root
    )
    got.foreach { case (key, out) => assert(out == pinned(key), key) }
  }

  test("a fit runs one job per assignment phase plus the repartition's shuffle") {
    val (df, data) = fixture(3000)
    val init = KMeans.initCentroids(data, 10, 5L)
    val sc = spark.sparkContext
    // Without init, one more job picks the initial centroids.
    Seq(Some(init) -> 1, None -> 2).foreach { case (start, extra) =>
      val jobs = new AtomicInteger
      val listener = new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      }
      ListenerBusAccess.drain(sc) // earlier jobs' events must not reach the listener
      sc.addSparkListener(listener)
      val fitted =
        try DistributedDaskMeans.fit(df, 10, 10, numPartitions = 4, init = start)
        finally { ListenerBusAccess.drain(sc); sc.removeSparkListener(listener) }
      try assert(jobs.get == fitted.iterations + extra, s"${jobs.get} jobs for ${fitted.iterations} assignment phases")
      finally DistributedDaskMeans.cleanup(fitted)
    }
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
    val (df, _) = fixture(2000, "Argo-PC")
    val k = 10
    val init = DistributedDaskMeans.initialCentroids(df, k, 5L)
    val fitted = DistributedDaskMeans.fit(df, k, 10, numPartitions = 4, init = Some(init))
    DistributedDaskMeans.cleanup(fitted)
    // Both start from the same centroids, so both are Lloyd's trajectory.
    val ml = MllibLloyd.fit(df, init, 10)
    fitted.centroids.indices.foreach { j =>
      assert(Vec.dist(fitted.centroids(j), ml(j)) < 1e-9, s"centroid $j")
    }
    val (ours, theirs) = (DistributedDaskMeans.sse(df, fitted.centroids), DistributedDaskMeans.sse(df, ml))
    assert(math.abs(ours - theirs) <= 1e-9 * ours, s"ours=$ours mllib=$theirs")
  }
}
