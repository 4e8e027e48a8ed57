package repro.spark

import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.core._

import scala.collection.concurrent.TrieMap

/** Executor-local cache of per-partition Ball-trees and assignment state.
  *
  * The tree over a partition's spatial vectors is built once (the paper
  * builds the spatial-vector index once per task) and reused across the
  * driver-coordinated iterations; the assignment markers persist so the
  * inter-bound / batch pruning carries over between iterations exactly as
  * in the serial algorithm. Keys are (runId, partitionId); entries are
  * dropped explicitly when a run finishes. Works wherever executor JVMs
  * are stable across stages (local mode and standalone executors).
  */
object PartitionIndexCache {
  final class Entry(
      val ids: Array[Long],
      val state: TreeAssignmentState,
      val counter: DistanceCounter,
  )

  private val cache = TrieMap.empty[(String, Int), Entry]

  def getOrBuild(runId: String, partition: Int, build: () => Entry): Entry =
    cache.getOrElseUpdate((runId, partition), build())

  def get(runId: String, partition: Int): Option[Entry] = cache.get((runId, partition))

  def drop(runId: String): Unit =
    cache.keys.filter(_._1 == runId).foreach(cache.remove)

  def size: Int = cache.size
}

/** Dask-means lifted onto Spark per the repro plan: the memory-tunable
  * index and batch assignment run as a per-partition `mapPartitions`
  * operator, feeding MLlib-KMeans-style (Lloyd) iterations — per iteration
  * the driver broadcasts the centroids and inter bounds, each partition
  * runs [[repro.core.DaskAssign.step]] over its cached tree, and the
  * emitted (cluster, count, sum) partials are reduced into the next
  * centroids.
  */
object DistributedDaskMeans {

  /** `counts`: cluster sizes at the last assignment phase; `numPartitions`:
    * the partition count the run's cache is keyed by.
    */
  final case class FitResult(
      centroids: Array[Array[Double]],
      iterations: Int,
      runId: String,
      batchPrunedVectors: Long,
      counts: Array[Long],
      numPartitions: Int,
  )

  /** Deterministic initial centroids: the k rows with the smallest hashed
    * ids (a seeded pseudo-random sample).
    */
  def initialCentroids(df: DataFrame, k: Int, seed: Long): Array[Array[Double]] =
    df.orderBy(xxhash64(col("id"), lit(seed)))
      .limit(k)
      .select("features")
      .collect()
      .map(_.getSeq[Double](0).toArray)

  /** Fit k-means over `df` (columns `id`, `features`). The frame should be
    * persisted by the caller if it is expensive to recompute; partitions
    * must be deterministic across iterations (repartition(id) enforces it).
    * If the fit throws, the run's partition cache is dropped.
    */
  def fit(
      df: DataFrame,
      k: Int,
      maxIters: Int,
      leafCapacity: Int = 30,
      numPartitions: Int = 0,
      seed: Long = 42L,
      init: Option[Array[Array[Double]]] = None,
  ): FitResult = {
    require(maxIters >= 1, "need at least one iteration")
    val spark = df.sparkSession
    val parts = if (numPartitions > 0) numPartitions else spark.sparkContext.defaultParallelism
    val pts = df.select("id", "features").repartition(parts, col("id")).persist()
    pts.count() // materialise so the partition layout is frozen

    val runId = java.util.UUID.randomUUID().toString
    val start = init.getOrElse(initialCentroids(pts, k, seed))
    require(start.length == k, s"need k=$k distinct initial centroids, got ${start.length}")
    val d = start(0).length
    val driverCounter = new DistanceCounter
    var counts: Array[Long] = null

    val run = new KMeansRun {
      private var cb = new Array[Double](k)
      private var sums: Array[Array[Double]] = null

      override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
        // Driver-side inter bounds over a centroid index (k is small).
        val index = if (k > 1) new CentroidIndex(centroids, leafCapacity, driverCounter) else null
        cb = DaskAssign.interBounds(centroids, index, first = it == 0, cb, drifts, driverCounter)
        val bc = spark.sparkContext.broadcast((centroids, cb))
        val partials = assignPartitions(pts, runId, k, leafCapacity, bc)
        bc.unpersist()

        // Reduce partials into per-cluster sums; cluster −1 carries a
        // partition's pruned count.
        sums = Array.fill(k)(new Array[Double](d))
        counts = new Array[Long](k)
        var pruned = 0L
        partials.foreach { case (j, c, s) =>
          if (j < 0) pruned += c
          else { counts(j) += c; Vec.addInto(sums(j), s) }
        }
        pruned
      }

      override def refine(centroids: Array[Array[Double]], drifts: Array[Double]): Array[Array[Double]] =
        KMeans.fromSums(sums, counts, centroids, drifts)
    }

    try {
      val out = KMeans.iterate(start, maxIters, run)
      FitResult(out.centroids, out.iterations, runId, out.pruned, counts, parts)
    } catch {
      case t: Throwable => PartitionIndexCache.drop(runId); throw t
    } finally pts.unpersist()
  }

  /** One assignment phase over every partition's cached tree: the
    * (cluster, count, sum) partials of its non-empty clusters, and one
    * (−1, pruned vectors, ∅) record.
    */
  private def assignPartitions(
      pts: DataFrame,
      runId: String,
      k: Int,
      leafCapacity: Int,
      bc: Broadcast[(Array[Array[Double]], Array[Double])],
  ): Array[(Int, Long, Array[Double])] = {
    import pts.sparkSession.implicits._
    pts
      .mapPartitions { rows =>
        val pid = TaskContext.getPartitionId()
        val entry = PartitionIndexCache.getOrBuild(runId, pid, () => {
          val buf = rows.map(r => (r.getLong(0), r.getSeq[Double](1).toArray)).toArray
          val data = buf.map(_._2)
          val counter = new DistanceCounter
          if (data.isEmpty) new PartitionIndexCache.Entry(Array.empty, null, counter)
          else new PartitionIndexCache.Entry(
            buf.map(_._1),
            new TreeAssignmentState(data, BallTree.build(data, leafCapacity), k),
            counter)
        })
        if (entry.state == null) Iterator.empty
        else {
          val (cs, cb) = bc.value
          val index = if (k > 1) new CentroidIndex(cs, leafCapacity, entry.counter) else null
          val pruned = DaskAssign.step(entry.state, cs, cb, index, entry.counter)
          val st = entry.state
          Iterator.single((-1, pruned, Array.emptyDoubleArray)) ++
            (0 until k).iterator.filter(j => st.counts(j) > 0).map(j => (j, st.counts(j), st.sums(j)))
        }
      }
      .collect()
  }

  /** Final per-point assignments of a finished run as a DataFrame
    * `(id, cluster)`, partitioned as the run was; requires the run's cached
    * partition state (call before [[cleanup]]). Falls back to a broadcast
    * nearest-centroid pass for partitions whose cache entry is gone.
    */
  def assignments(df: DataFrame, fitted: FitResult, leafCapacity: Int = 30): DataFrame = {
    val spark = df.sparkSession
    val bc = spark.sparkContext.broadcast(fitted.centroids)
    import spark.implicits._
    df.select("id", "features")
      .repartition(fitted.numPartitions, col("id"))
      .mapPartitions { rows =>
        val pid = TaskContext.getPartitionId()
        PartitionIndexCache.get(fitted.runId, pid) match {
          case Some(entry) if entry.state != null =>
            val a = entry.state.materialize()
            val byId = new java.util.HashMap[Long, Int](entry.ids.length * 2)
            entry.ids.indices.foreach(i => byId.put(entry.ids(i), i))
            rows.map { r =>
              val id = r.getLong(0)
              val i = byId.getOrDefault(id, -1)
              if (i >= 0) (id, a(i))
              else (id, Vec.nearest(r.getSeq[Double](1).toArray, bc.value))
            }
          case _ =>
            rows.map(r => (r.getLong(0), Vec.nearest(r.getSeq[Double](1).toArray, bc.value)))
        }
      }
      .toDF("id", "cluster")
  }

  def cleanup(fitted: FitResult): Unit = PartitionIndexCache.drop(fitted.runId)

  /** Sum of squared errors of a fitted model over the frame. */
  def sse(df: DataFrame, centroids: Array[Array[Double]]): Double = {
    val spark = df.sparkSession
    val bc = spark.sparkContext.broadcast(centroids)
    import spark.implicits._
    df.select("features")
      .map { r =>
        val p = r.getSeq[Double](0).toArray
        val cs = bc.value
        Vec.dist2(p, cs(Vec.nearest(p, cs)))
      }
      .reduce(_ + _)
  }
}
