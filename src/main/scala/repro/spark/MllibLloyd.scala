package repro.spark

import org.apache.spark.mllib.clustering.{KMeans => MlKMeans, KMeansModel}
import org.apache.spark.mllib.linalg.Vectors
import org.apache.spark.sql.DataFrame

/** MLlib's KMeans as the distributed baseline the per-partition Dask-means
  * operator is compared against. It starts from the given centroids, so
  * both run Lloyd's trajectory from the same init.
  */
object MllibLloyd {

  /** The centroids after `maxIters` Lloyd iterations from `init` (fewer if
    * no centroid moves).
    */
  def fit(df: DataFrame, init: Array[Array[Double]], maxIters: Int): Array[Array[Double]] = {
    import df.sparkSession.implicits._
    val vectors = df.select("features").as[Array[Double]].rdd.map(a => Vectors.dense(a))
    new MlKMeans()
      .setK(init.length)
      .setInitialModel(new KMeansModel(init.map(Vectors.dense)))
      .setMaxIterations(maxIters)
      .setEpsilon(0.0)
      .run(vectors)
      .clusterCenters
      .map(_.toArray)
  }
}
